(* Content-addressed memoization of analytic measurements.

   The tuner's phases re-measure the same plans many times over — phase-2
   refinement revisits phase-1 winners, deep tuning re-tunes shared
   prefixes at every fusion depth, and the benchmark harness replays whole
   searches.  A measurement is a pure function of (traffic model, plan) —
   the device is part of the plan, and the traffic model is the only other
   global input — so we key on the canonical [Marshal] bytes of exactly
   that pair.

   [Marshal.No_sharing] makes the byte string canonical: structurally
   equal plans serialize identically regardless of in-memory sharing, so
   the full key string doubles as a collision-free in-memory hash key.
   The on-disk store (enabled via [set_dir]) names files by digest but
   verifies the stored key bytes before trusting an entry, so digest
   collisions degrade to misses, never wrong results. *)

module Plan = Artemis_ir.Plan
module Analytic = Artemis_exec.Analytic
module Metrics = Artemis_obs.Metrics
module Trace = Artemis_obs.Trace

let m_hits = Metrics.counter "tuner.cache_hit"
let m_misses = Metrics.counter "tuner.cache_miss"

(** Canonical content key of a measurement request: the traffic model in
    force plus the full plan, as canonical (sharing-free) marshal bytes. *)
let key_of (plan : Plan.t) =
  Marshal.to_string (!Artemis_exec.Traffic.model, plan) [ Marshal.No_sharing ]

let lock = Mutex.create ()
let table : (string, Analytic.measurement option) Hashtbl.t =
  Hashtbl.create 256

let dir : string option ref = ref None

(** Route entries through [d] as well as memory, creating it if needed;
    [None] turns the disk store off. *)
let set_dir d =
  Option.iter
    (fun d -> try if not (Sys.file_exists d) then Sys.mkdir d 0o755 with Sys_error _ -> ())
    d;
  dir := d

let disk_path key =
  Option.map (fun d -> Filename.concat d (Digest.to_hex (Digest.string key) ^ ".cache")) !dir

(* The measurement of one fixed probe plan, evaluated once at start-up
   under the default traffic model (uncounted: it is not tuning work).
   Its marshalled bytes change whenever the shape of
   [Analytic.measurement] or the model's arithmetic changes, and with
   them the header every disk entry starts with. *)
let header =
  let module A = Artemis_dsl.Ast in
  let at s = [ A.index ~iter:"i" s ] in
  let kernel =
    { Artemis_dsl.Instantiate.kname = "probe";
      body =
        [ A.Assign
            ("out", at 0, A.Bin (A.Add, A.Access ("in", at (-1)), A.Access ("in", at 1)))
        ];
      iters = [ "i" ]; domain = [| 1024 |];
      arrays = [ ("in", [| 1024 |]); ("out", [| 1024 |]) ];
      scalars = []; assign = []; pragma = A.empty_pragma }
  in
  let probe = Analytic.evaluate (Plan.default Artemis_gpu.Device.p100 kernel) in
  "artemis-measure-cache-1:"
  ^ Digest.to_hex (Digest.string (Marshal.to_string probe [ Marshal.No_sharing ]))

(* Disk entries are [header] then a marshalled (key, result) pair.  The
   header is compared before anything is unmarshalled, so an entry
   written for another measurement shape is never read as this one; any
   other read problem — missing file, truncation, digest collision — is
   just a miss. *)
let disk_find key =
  match disk_path key with
  | None -> None
  | Some path -> (
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          if not (String.equal (really_input_string ic (String.length header)) header)
          then None
          else
            let stored_key, (result : Analytic.measurement option) =
              Marshal.from_channel ic
            in
            if String.equal stored_key key then Some result else None)
    with _ -> None)

let disk_store key result =
  match disk_path key with
  | None -> ()
  | Some path -> (
    (* Write a fresh temp file, then rename it into place: processes
       sharing the directory never write the same file, and readers see
       either no entry or a whole one. *)
    try
      let tmp =
        Filename.temp_file ~temp_dir:(Filename.dirname path)
          (Filename.basename path) ".tmp"
      in
      try
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc header;
            Marshal.to_channel oc (key, result) []);
        Sys.rename tmp path
      with e ->
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e
    with _ -> ())

let record outcome =
  (match outcome with
  | `Hit -> Metrics.incr m_hits
  | `Miss -> Metrics.incr m_misses);
  if Trace.enabled () then
    Trace.instant "tuner.cache"
      ~attrs:
        [ ("outcome", Trace.Str (match outcome with `Hit -> "hit" | `Miss -> "miss")) ]

(** Memoized [Analytic.try_measure] that also reports whether the cache
    answered.  The outcome returns to the caller (rather than being only
    a side-effect metric) so main-domain folds can journal it in
    canonical candidate order — workers must not append to the journal
    themselves. *)
let try_measure_outcome (plan : Plan.t) =
  let key = key_of plan in
  let cached =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt table key with
        | Some r -> Some r
        | None -> (
          match disk_find key with
          | Some r ->
            Hashtbl.replace table key r;
            Some r
          | None -> None))
  in
  match cached with
  | Some r ->
    record `Hit;
    (r, `Hit)
  | None ->
    record `Miss;
    let r = Analytic.try_measure plan in
    Mutex.protect lock (fun () ->
        if not (Hashtbl.mem table key) then begin
          Hashtbl.replace table key r;
          disk_store key r
        end);
    (r, `Miss)

(** Memoized [Analytic.try_measure].  Invalid plans cache their [None] so
    repeated probes of the same dead configuration cost one lookup. *)
let try_measure (plan : Plan.t) = fst (try_measure_outcome plan)

(** Drop every in-memory entry (the on-disk store is left alone). *)
let clear () = Mutex.protect lock (fun () -> Hashtbl.reset table)

let size () = Mutex.protect lock (fun () -> Hashtbl.length table)
