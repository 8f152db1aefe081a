(* Span tracing.  A single global sink shared by every domain: an enabled
   flag, a growing event buffer behind a mutex, and a per-domain span
   stack (Domain.DLS) so concurrent pool workers nest independently.
   All entry points bail on one boolean when disabled so instrumentation
   is free in the common case. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type event = {
  name : string;
  phase : [ `Span | `Instant ];
  ts_us : float;
  dur_us : float;
  depth : int;
  tid : int;
  attrs : (string * value) list;
}

let enabled_flag = ref false
let lock = Mutex.create ()
let buffer : event list ref = ref []
let count = ref 0
let base_time = ref 0.0

(* Span depth is per domain: a worker's spans nest under its own stack,
   not the submitter's. *)
let span_depth : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(* Monotonic clamp over gettimeofday: timestamps never go backwards even
   if the wall clock is stepped mid-run.  [last_time] is only touched
   with [lock] held. *)
let last_time = ref 0.0

let default_clock () =
  let t = Unix.gettimeofday () in
  let t = if t < !last_time then !last_time else t in
  last_time := t;
  t

let clock = ref default_clock
let set_clock f = clock := f

let enabled () = !enabled_flag

let start () =
  Mutex.lock lock;
  buffer := [];
  count := 0;
  Domain.DLS.get span_depth := 0;
  base_time := !clock ();
  enabled_flag := true;
  Mutex.unlock lock

let stop () = enabled_flag := false

(* Call with [lock] held (the clock clamp mutates [last_time]). *)
let now_us () = (!clock () -. !base_time) *. 1e6

let tid () = (Domain.self () :> int)

let record_now ~name ~phase ~t0 ~depth ~attrs =
  Mutex.lock lock;
  let t1 = now_us () in
  let ts_us, dur_us = match t0 with None -> (t1, 0.0) | Some t0 -> (t0, t1 -. t0) in
  buffer := { name; phase; ts_us; dur_us; depth; tid = tid (); attrs } :: !buffer;
  incr count;
  Mutex.unlock lock

let instant ?(attrs = []) name =
  if !enabled_flag then
    record_now ~name ~phase:`Instant ~t0:None
      ~depth:!(Domain.DLS.get span_depth) ~attrs

let with_span ?(attrs = []) name f =
  if not !enabled_flag then f ()
  else begin
    let t0 =
      Mutex.lock lock;
      let t = now_us () in
      Mutex.unlock lock;
      t
    in
    let d = Domain.DLS.get span_depth in
    let depth = !d in
    incr d;
    let finally () =
      decr d;
      record_now ~name ~phase:`Span ~t0:(Some t0) ~depth ~attrs
    in
    Fun.protect ~finally f
  end

let events () =
  Mutex.lock lock;
  let evs = List.rev !buffer in
  Mutex.unlock lock;
  evs

let event_count () = !count

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)
(* ------------------------------------------------------------------ *)

let value_to_json = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s

let event_to_json (e : event) =
  let args = List.map (fun (k, v) -> (k, value_to_json v)) e.attrs in
  let base =
    [ ("name", Json.Str e.name);
      ("ph", Json.Str (match e.phase with `Span -> "X" | `Instant -> "i"));
      ("ts", Json.Float e.ts_us); ("pid", Json.Int 1); ("tid", Json.Int e.tid) ]
  in
  let dur = match e.phase with `Span -> [ ("dur", Json.Float e.dur_us) ] | `Instant -> [] in
  let scope = match e.phase with `Instant -> [ ("s", Json.Str "t") ] | `Span -> [] in
  Json.Obj (base @ dur @ scope @ [ ("args", Json.Obj args) ])

let to_chrome_json () =
  Json.Obj
    [ ("traceEvents", Json.List (List.map event_to_json (events ())));
      ("displayTimeUnit", Json.Str "ms") ]

let to_chrome_string () = Json.to_string ~indent:true (to_chrome_json ())

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_chrome_string ()))
