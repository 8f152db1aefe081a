(* The repository benchmark.  One process runs one named workload, times
   it with tracing off, checks its outputs, and prints one JSON result
   line last on stdout.  run.py builds this program and forwards its
   arguments; README.md lists every metric with its layer and the
   end-to-end figure it should move.

     python3 perfbench/run.py --workload tune-suite --seed 1 --seconds 40 --trace 0

   With --trace 1 the run reports per-layer figures instead: untraced
   passes for the baseline wall time, one traced pass for span self times
   and counter deltas, and per-call costs of each layer's public
   functions replayed from here.  Everything is read through the public
   API, Metrics and Trace; nothing inside lib/ is instrumented for the
   benchmark. *)

module Plan = Artemis.Plan
module I = Artemis.Instantiate
module M = Artemis.Metrics
module Trace = Artemis.Trace
module Json = Artemis.Json
module Pool = Artemis.Pool
module Suite = Artemis.Suite
module Lint = Artemis.Lint
module Grid = Artemis_exec.Grid
module Space = Artemis_tune.Space
module Harness = Artemis_verify.Harness
module Gen = Artemis_verify.Gen
module Sampler = Artemis_verify.Sampler

let dev = Artemis.Device.p100
let now = Unix.gettimeofday

let wall f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* Host speed probe.  The reference host's speed drifts by 10-50% from
   one half-minute to the next, for every unit of work alike, so two runs
   of the same code differ in raw wall time by more than the bounds
   allow.  Before each timed unit a fixed, allocation-free sweep that
   uses nothing of the program is timed; the run's mean probe time
   scales the pass time to seconds on the reference host, where the probe
   takes [probe_ref_s].  The mean, not the median: a probe takes one of
   two times, as the host's other load comes and goes, and the mean
   follows the share of each smoothly. *)
let probe_ref_s = 0.024

let probe_src = Array.init (1 lsl 17) float_of_int
let probe_dst = Array.make (1 lsl 17) 0.0
let probes = ref []

let probe () =
  let n = Array.length probe_src in
  for _ = 1 to 96 do
    for i = 1 to n - 2 do
      Array.unsafe_set probe_dst i
        ((0.25 *. (Array.unsafe_get probe_src (i - 1) +. Array.unsafe_get probe_src (i + 1)))
        +. (0.5 *. Array.unsafe_get probe_src i))
    done
  done

(* A timed unit of work starts from a collected heap, so garbage left by
   earlier units (input copies, digests, other programs) is not
   collected on its clock. *)
let timed f =
  Gc.full_major ();
  let p, () = wall probe in
  probes := p :: !probes;
  wall f

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0

(* Mean of the values between the 10th and the 90th percentile: a probe
   that the scheduler interrupts does not move it. *)
let trimmed_mean xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let cut = n / 10 in
  let mid = Array.sub a cut (n - (2 * cut)) in
  Array.fold_left ( +. ) 0.0 mid /. float_of_int (Array.length mid)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ------------------------------------------------------------------ *)
(* Counters and spans the program already records                      *)
(* ------------------------------------------------------------------ *)

(* Every counter entry of the registry as (name, labels, value). *)
let counter_entries () =
  let field k = function Json.Obj fs -> List.assoc_opt k fs | _ -> None in
  match field "counters" (M.snapshot ()) with
  | Some (Json.List cs) ->
    List.filter_map
      (fun c ->
        match (field "name" c, field "labels" c, field "value" c) with
        | Some (Json.Str n), Some (Json.Obj ls), Some (Json.Float v) ->
          Some
            ( n,
              List.filter_map
                (function k, Json.Str s -> Some (k, s) | _ -> None)
                ls,
              v )
        | _ -> None)
      cs
  | _ -> []

(* Sum of a counter over all its label sets, or over those carrying
   [label]. *)
let counter ?label entries name =
  List.fold_left
    (fun acc (n, ls, v) ->
      let ok = match label with None -> true | Some l -> List.mem l ls in
      if n = name && ok then acc +. v else acc)
    0.0 entries

(* The counter sums the tuner's cost attribution multiplies by. *)
type tune_counts = {
  analytic : float;  (** Analytic.try_measure calls *)
  keyed : float;  (** Measure_cache lookups, one key_of each *)
  considered : float;  (** candidates linted for launch errors *)
  lint_pruned : float;
  static_pruned : float;
  prerank_pruned : float;
}

let tune_counts () =
  let e = counter_entries () in
  let c = counter e in
  let lint_pruned = c "tuner.configs_lint_pruned"
  and static_pruned = c "tuner.configs_static_pruned" in
  {
    analytic = c "exec.analytic_measures";
    keyed = c "tuner.cache_hit" +. c "tuner.cache_miss";
    considered =
      c "tuner.configs_measured" +. lint_pruned +. static_pruned
      +. counter ~label:("reason", "measurement-failed") e "tuner.configs_pruned";
    lint_pruned;
    static_pruned;
    prerank_pruned = c "tuner.configs_prerank_pruned";
  }

let counts_diff a b =
  {
    analytic = a.analytic -. b.analytic;
    keyed = a.keyed -. b.keyed;
    considered = a.considered -. b.considered;
    lint_pruned = a.lint_pruned -. b.lint_pruned;
    static_pruned = a.static_pruned -. b.static_pruned;
    prerank_pruned = a.prerank_pruned -. b.prerank_pruned;
  }

(* Self time per span name, in domain-milliseconds.  A span's self time
   is its duration minus the spans nested directly under it on the same
   domain.  "pool.task" spans are the pool's plumbing, not a layer: on
   the submitting domain they count as their parent's time, and a task a
   worker domain ran counts toward the innermost span of the submitting
   domain that encloses it — the span that issued the map. *)
let self_times ~main_tid (events : Trace.event list) =
  let spans =
    List.filter (fun (e : Trace.event) -> e.phase = `Span) events
    |> List.sort (fun (a : Trace.event) b -> compare (a.tid, a.ts_us, a.depth) (b.tid, b.ts_us, b.depth))
    |> Array.of_list
  in
  let n = Array.length spans in
  let parent = Array.make n (-1) in
  let stack = ref [] in
  let tid = ref (-1) in
  Array.iteri
    (fun i (e : Trace.event) ->
      if e.tid <> !tid then begin
        tid := e.tid;
        stack := []
      end;
      let rec pop = function
        | j :: rest when spans.(j).depth >= e.depth -> pop rest
        | s -> s
      in
      stack := pop !stack;
      (match !stack with j :: _ -> parent.(i) <- j | [] -> ());
      stack := i :: !stack)
    spans;
  let is_pool i = spans.(i).name = "pool.task" in
  (* The span a nested span's time is taken from: its nearest non-pool
     ancestor, or the outermost task when only pool spans enclose it. *)
  let rec owner i =
    let p = parent.(i) in
    if p < 0 || (not (is_pool p)) || parent.(p) < 0 then p else owner p
  in
  let self = Array.map (fun (e : Trace.event) -> e.dur_us) spans in
  for i = 0 to n - 1 do
    if not (is_pool i) then
      match owner i with -1 -> () | p -> self.(p) <- self.(p) -. spans.(i).dur_us
  done;
  (* A task a worker domain ran counts toward its issuer: the innermost
     non-pool span on the main domain enclosing the task's whole
     interval.  Spans on one domain nest, so the issuer is an ancestor
     of the last main span starting no later than the task. *)
  let main = List.filter (fun i -> spans.(i).tid = main_tid) (List.init n Fun.id) |> Array.of_list in
  let last_start_before ts =
    let lo = ref 0 and hi = ref (Array.length main - 1) and best = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if spans.(main.(mid)).ts_us <= ts then begin
        best := main.(mid);
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    !best
  in
  let encloses j (t : Trace.event) =
    let s = spans.(j) in
    s.ts_us <= t.ts_us && s.ts_us +. s.dur_us >= t.ts_us +. t.dur_us
  in
  let rec issuer j t =
    if j < 0 then -1 else if (not (is_pool j)) && encloses j t then j else issuer parent.(j) t
  in
  for i = 0 to n - 1 do
    if is_pool i && parent.(i) < 0 && spans.(i).tid <> main_tid then
      match issuer (last_start_before spans.(i).ts_us) spans.(i) with
      | -1 -> ()
      | j -> self.(j) <- self.(j) +. self.(i)
  done;
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i (e : Trace.event) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl e.name) in
      Hashtbl.replace tbl e.name (prev +. (self.(i) /. 1000.0)))
    spans;
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

let span_total_ms name (events : Trace.event list) =
  List.fold_left
    (fun acc (e : Trace.event) ->
      if e.phase = `Span && e.name = name then acc +. (e.dur_us /. 1000.0) else acc)
    0.0 events

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* Default plan with the block shrunk until launchable: the plans the
   executors run when nothing is tuned. *)
let exec_plan_of k = Sampler.shrink_valid (Artemis.Lower.lower dev k Artemis.Options.default) 12

(* The front end on a program's text: parse, check, instantiate. *)
let front_end text =
  let pt, prog = wall (fun () -> Artemis.Parser.parse_program text) in
  let ct, () = wall (fun () -> Artemis.Check.check prog) in
  let it, sched = wall (fun () -> I.schedule prog) in
  (pt +. ct, it, prog, sched)

(* Spawn the pool's worker domains from scratch. *)
let warm_pool () =
  Pool.shutdown ();
  ignore (Pool.map (fun x -> x + 1) (List.init (4 * Pool.parallelism ()) Fun.id))

let digest_grid (g : Grid.t) =
  let b = Bytes.create (8 * Array.length g.data) in
  Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x)) g.data;
  Digest.to_hex (Digest.bytes b)

let copy_store (s : Artemis.Reference.store) : Artemis.Reference.store =
  let h = Hashtbl.create (Hashtbl.length s) in
  Hashtbl.iter (fun k g -> Hashtbl.replace h k (Grid.copy g)) s;
  h

(* Logical point updates of a schedule: launches times domain volume. *)
let rec schedule_points items =
  List.fold_left
    (fun acc -> function
      | I.Launch (k : I.kernel) -> acc +. float_of_int (Array.fold_left ( * ) 1 k.domain)
      | I.Exchange _ -> acc
      | I.Repeat (n, sub) -> acc +. (float_of_int n *. schedule_points sub))
    0.0 items

let with_iterations t (prog : Artemis.Ast.program) =
  { prog with
    main =
      List.map
        (function Artemis.Ast.Iterate (_, body) -> Artemis.Ast.Iterate (t, body) | item -> item)
        prog.main }

(* Expected values stored with the benchmark: "key value" lines. *)
let load_expected path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ k; v ] when k <> "" && k.[0] <> '#' -> Some (k, v)
           | _ -> None)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type setup_times = { parse_s : float; inst_s : float; store_s : float }

(* One measured pass.  [samples] are the wall times of its units of
   work (a program tuned, a grid run through one executor, a fuzz
   batch); the checks that follow them are not timed. *)
type pass = {
  samples : (string * float) list;
  attempted : int;  (** checked operations, the same in every pass *)
  problems : string list;  (** failed checks, one message each *)
  extras : (string * float) list;
      (** workload figures: executor seconds, point updates, cases... *)
  replay : unit -> (string * I.kernel list * Plan.t list) list;
      (** per program: its kernels and the plans it chose or ran *)
}

let pass_time p = sum (List.map snd p.samples)

(* Wraps each unit of a pass, named after its program; the traced run
   reads counters around it. *)
type hook = { around : 'a. string -> (unit -> 'a) -> 'a }

let no_hook = { around = (fun _ f -> f ()) }

type workload = {
  setup : unit -> setup_times;  (** one set-up repetition *)
  run_pass : hook:hook -> pass;
  record : unit -> (string * string) list;  (** expected values to store *)
}

let mode_key small = if small then "small" else "full"

(* ---- tune-suite --------------------------------------------------- *)

(* Cold hierarchical tuning of every Table-I kernel, then deep tuning
   with temporal blocking on every iterative program, on the P100 model
   with the default pre-rank. *)
let tune_suite ~small ~expected =
  (* Deep tuning stops at time tile 3.  Past the stopping point the pool
     tunes further tiles speculatively, the pool-size-dependent work the
     traced run's counts show; at tile 4 a cold pass is too long to
     repeat within a run. *)
  let max_tile = if small then 2 else 3 and max_degree = 4 in
  let names =
    if small then [ "7pt-smoother"; "jacobi7-iter" ]
    else List.map (fun (b : Suite.t) -> b.name) Suite.all
  in
  let progs = ref [] in
  let setup () =
    let parse_s = ref 0.0 and inst_s = ref 0.0 in
    progs :=
      List.map
        (fun name ->
          let b = Suite.find name in
          let p, i, prog, _ = front_end (Artemis.Pretty.program_to_string b.prog) in
          parse_s := !parse_s +. p;
          inst_s := !inst_s +. i;
          let b = { b with prog } in
          let it, kernels = wall (fun () -> Suite.kernels b) in
          inst_s := !inst_s +. it;
          (b, kernels))
        names;
    { parse_s = !parse_s; inst_s = !inst_s; store_s = 0.0 }
  in
  (* Each program is tuned cold: the cache is cleared before it, so every
     pass, and every program within one, measures alike. *)
  let tune ~hook =
    List.map
      (fun ((b : Suite.t), kernels) ->
        let t, (rs, dr) =
          hook.around b.name (fun () ->
              Artemis.Measure_cache.clear ();
              timed (fun () ->
                  let rs =
                    List.map
                      (fun k -> Artemis.optimize_kernel ~device:dev ~iterative:b.iterative k)
                      kernels
                  in
                  let dr =
                    if b.iterative then
                      Some (Artemis.deep_tune ~device:dev ~max_tile ~max_degree b.prog)
                    else None
                  in
                  (rs, dr)))
        in
        (t, (b, kernels, rs, dr)))
      !progs
  in
  let first_labels = ref None in
  let quality results =
    let tflops =
      List.concat_map
        (fun (_, _, rs, dr) ->
          List.map (fun (r : Artemis.result) -> r.tuned.tflops) rs
          @
          match dr with
          | Some (d : Artemis.deep_result) ->
            List.map (fun (v : Artemis.Deep.version) -> v.record.best.tflops) d.deep.versions
          | None -> [])
        results
    in
    let geo = exp (sum (List.map log tflops) /. float_of_int (List.length tflops)) in
    let pred =
      sum
        (List.map
           (fun (_, _, _, dr) ->
             match dr with Some (d : Artemis.deep_result) -> d.predicted_time | None -> 0.0)
           results)
    in
    (geo, pred)
  in
  let chosen results =
    List.concat_map
      (fun ((b : Suite.t), _, rs, dr) ->
        List.map (fun (r : Artemis.result) -> (b.name, r.tuned.plan)) rs
        @
        match dr with
        | Some (d : Artemis.deep_result) ->
          List.map (fun (v : Artemis.Deep.version) -> (b.name, v.record.best.plan)) d.deep.versions
        | None -> [])
      results
  in
  let labels results =
    List.map (fun (n, p) -> n ^ ":" ^ Plan.label p) (chosen results)
    @ List.filter_map
        (fun ((b : Suite.t), _, _, dr) ->
          Option.map
            (fun (d : Artemis.deep_result) ->
              Printf.sprintf "%s:schedule=%s" b.name
                (String.concat "," (List.map string_of_int d.schedule)))
            dr)
        results
  in
  let key k = Printf.sprintf "%s.tune.%s" (mode_key small) k in
  let run_pass ~hook =
    let timed = tune ~hook in
    let results = List.map snd timed in
    let problems = ref [] in
    let fail msg = problems := msg :: !problems in
    List.iter
      (fun (name, p) ->
        if not (Artemis.Validate.is_valid p) then fail (name ^ ": winner violates device limits")
        else if Lint.has_errors (Lint.lint_plan p) then
          fail (name ^ ": winner has a lint Error: " ^ Plan.label p))
      (chosen results);
    let ls = labels results in
    (match !first_labels with
     | None -> first_labels := Some ls
     | Some first ->
       if first <> ls then fail "winning plan labels differ from the run's first pass");
    let geo, pred = quality results in
    (* A tuner that gets faster by choosing worse plans fails here: the
       chosen plans may not model slower than the recorded seed plans. *)
    (match List.assoc_opt (key "plan_tflops_geo") expected with
     | Some v when geo >= float_of_string v *. (1.0 -. 1e-9) -> ()
     | Some v -> fail (Printf.sprintf "plan_tflops_geo %.12g below recorded %s" geo v)
     | None -> fail "no recorded plan_tflops_geo");
    (match List.assoc_opt (key "deep_pred_s") expected with
     | Some v when pred <= float_of_string v *. (1.0 +. 1e-9) -> ()
     | Some v -> fail (Printf.sprintf "deep_pred_s %.12g above recorded %s" pred v)
     | None -> fail "no recorded deep_pred_s");
    let attempted =
      List.fold_left
        (fun acc (_, _, rs, dr) -> acc + List.length rs + if dr = None then 0 else 1)
        0 results
    in
    {
      samples = List.map (fun (t, ((b : Suite.t), _, _, _)) -> (b.name, t)) timed;
      attempted;
      problems = List.rev !problems;
      extras = [ ("plan_tflops_geo", geo); ("deep_pred_s", pred) ];
      replay =
        (fun () ->
          let chosen = chosen results in
          List.map
            (fun ((b : Suite.t), kernels, _, _) ->
              (b.name, kernels, List.filter_map (fun (n, p) -> if n = b.name then Some p else None) chosen))
            results);
    }
  in
  let record () =
    ignore (setup ());
    let results = List.map snd (tune ~hook:no_hook) in
    let geo, pred = quality results in
    [ (key "plan_tflops_geo", Printf.sprintf "%.17g" geo);
      (key "deep_pred_s", Printf.sprintf "%.17g" pred) ]
  in
  { setup; run_pass; record }

(* ---- exec-grids --------------------------------------------------- *)

let gs2d_src ~n =
  Printf.sprintf
    {|parameter L=%d, M=%d; iterator j, i;
      double u[L,M], f[L,M]; copyin u, f;
      stencil gs (x, g) {
        x[j][i] = 0.25 * (x[j][i-1] + x[j-1][i] + x[j][i+1] + x[j+1][i]) + 0.0625 * g[j][i];
      }
      gs (u, f); copyout u;|}
    n n

let sor3d_src ~n =
  Printf.sprintf
    {|parameter N=%d; iterator k, j, i;
      double u[N,N,N]; copyin u;
      stencil sor (x) {
        x[k][j][i] = 0.0625 * x[k][j][i] + 0.125 * (x[k][j][i-1] + x[k][j-1][i] + x[k-1][j][i] + x[k][j][i+1] + x[k][j+1][i] + x[k+1][j][i]);
      }
      sor (u); copyout u;|}
    n

type grid_case = {
  gname : string;
  text : string;
  blocked : bool;  (** Runner runs the degree-4 temporal rewrite *)
}

(* Grid sizes: the 3-D smoother arrays are 96^3 doubles (6.75 MiB, past
   one core's 4 MiB L2), so nearly every point runs on the unguarded
   interior rows.  The blocked case is smaller: degree-4 launches sweep
   their deeper halo windows point by point. *)
let grid_cases ~small =
  let n3 = if small then 20 else 96 and n2 = if small then 48 else 1024 in
  let suite name n t =
    Artemis.Pretty.program_to_string (with_iterations t (Suite.at_size n (Suite.find name)).prog)
  in
  [ { gname = "jacobi7-iter"; text = suite "jacobi7-iter" n3 4; blocked = false };
    { gname = "27pt-smoother"; text = suite "27pt-smoother" n3 2; blocked = false };
    { gname = "gs2d"; text = gs2d_src ~n:n2; blocked = false };
    { gname = "sor3d"; text = sor3d_src ~n:(if small then 16 else 96); blocked = false };
    { gname = "jacobi7-tb4"; text = suite "jacobi7-iter" (if small then 16 else 40) 4; blocked = true } ]

type grid_ready = {
  case : grid_case;
  prog : Artemis.Ast.program;
  sched : I.sched_item list;
  steps : Artemis.Runner.step list;
  scalars : (string * float) list;
  store : Artemis.Reference.store;  (** pristine inputs *)
  points : float;
}

let rec shrink_blocked steps =
  List.map
    (function
      | Artemis.Runner.Run_plan p when p.Plan.temporal.Plan.degree > 1 ->
        Artemis.Runner.Run_plan (Sampler.shrink_valid p 12)
      | Artemis.Runner.Loop (n, sub) -> Artemis.Runner.Loop (n, shrink_blocked sub)
      | step -> step)
    steps

let rec plans_of_steps steps =
  List.concat_map
    (function
      | Artemis.Runner.Run_plan p -> [ p ]
      | Artemis.Runner.Swap _ -> []
      | Artemis.Runner.Loop (_, sub) -> plans_of_steps sub)
    steps

let copyout_digests (prog : Artemis.Ast.program) store =
  List.map (fun n -> (n, digest_grid (Artemis.Reference.find_array store n))) prog.copyout

let exec_grids ~small ~expected =
  let cases = grid_cases ~small in
  let ready = ref [] in
  let setup () =
    let parse_s = ref 0.0 and inst_s = ref 0.0 and store_s = ref 0.0 in
    ready :=
      List.map
        (fun case ->
          let p, i, prog, sched = front_end case.text in
          parse_s := !parse_s +. p;
          let lt, steps =
            wall (fun () ->
                let steps = Artemis.Runner.configure ~plan_of:exec_plan_of sched in
                if case.blocked then shrink_blocked (Artemis.Runner.temporal_rewrite ~degree:4 steps)
                else steps)
          in
          inst_s := !inst_s +. i +. lt;
          let st, store = wall (fun () -> Artemis.Reference.store_of_program prog) in
          store_s := !store_s +. st;
          { case; prog; sched; steps; scalars = Artemis.Reference.scalars_of_program prog; store;
            points = schedule_points sched })
        cases;
    { parse_s = !parse_s; inst_s = !inst_s; store_s = !store_s }
  in
  let key g name = Printf.sprintf "%s.exec.%s.%s" (mode_key small) g.case.gname name in
  let run_one g =
    let ref_store = copy_store g.store and run_store = copy_store g.store in
    let ref_s, () =
      timed (fun () -> Artemis.Reference.run_schedule ref_store ~scalars:g.scalars g.sched)
    in
    let run_s, _ = timed (fun () -> Artemis.Runner.run_schedule g.steps run_store ~scalars:g.scalars) in
    (ref_s, run_s, ref_store, run_store)
  in
  let digests g (ref_s, run_s, ref_store, run_store) =
    (ref_s, run_s, copyout_digests g.prog ref_store, copyout_digests g.prog run_store)
  in
  (* Only the executors are timed; input copies and digests are not. *)
  let run_pass ~hook =
    let results =
      List.map
        (fun g ->
          let out = hook.around g.case.gname (fun () -> run_one g) in
          (g, digests g out))
        !ready
    in
    let problems = ref [] in
    let fail msg = problems := msg :: !problems in
    List.iter
      (fun (g, (_, _, ref_d, run_d)) ->
        List.iter2
          (fun (n, rd) (_, xd) ->
            if rd <> xd then fail (Printf.sprintf "%s/%s: Runner differs from Reference" g.case.gname n);
            match List.assoc_opt (key g n) expected with
            | Some d when d = rd -> ()
            | Some _ -> fail (Printf.sprintf "%s/%s: Reference digest differs from the recorded one" g.case.gname n)
            | None -> fail (Printf.sprintf "%s/%s: no recorded digest" g.case.gname n))
          ref_d run_d)
      results;
    let ref_s = sum (List.map (fun (_, (r, _, _, _)) -> r) results)
    and run_s = sum (List.map (fun (_, (_, x, _, _)) -> x) results)
    and points = sum (List.map (fun (g, _) -> g.points) results) in
    {
      samples =
        List.concat_map
          (fun (g, (r, x, _, _)) -> [ (g.case.gname ^ "/reference", r); (g.case.gname ^ "/runner", x) ])
          results;
      attempted = 2 * List.length results;
      problems = List.rev !problems;
      extras =
        [ ("ref_s", ref_s); ("exec_s", run_s); ("exec_mpts_s", points /. run_s /. 1e6);
          ("ref_mpts_s", points /. ref_s /. 1e6) ];
      replay =
        (fun () ->
          List.map
            (fun g ->
              let plans = plans_of_steps g.steps in
              (g.case.gname, List.map (fun (p : Plan.t) -> p.kernel) plans, plans))
            !ready);
    }
  in
  (* Expected digests come from the interpreter-backed evaluator, the
     slowest and simplest path, and must equal both fast executors. *)
  let record () =
    ignore (setup ());
    let saved = !Artemis.Eval.use_interpreter in
    Artemis.Eval.use_interpreter := true;
    Fun.protect ~finally:(fun () -> Artemis.Eval.use_interpreter := saved) @@ fun () ->
    List.concat_map
      (fun g ->
        let _, _, ref_d, run_d = digests g (run_one g) in
        if ref_d <> run_d then failwith (g.case.gname ^ ": executors disagree under the interpreter");
        List.map (fun (n, d) -> (key g n, d)) ref_d)
      !ready
  in
  ({ setup; run_pass; record }, ready)

(* Hand-written single-threaded Jacobi sweep over the same grid as the
   exec-grids jacobi7-iter case: the floor the executors are measured
   against.  Same arithmetic order as the DSL body, so its grids are
   bit-equal to the executors' ("in" holds the last step after the
   final swap). *)
let handloop_jacobi (g : grid_ready) =
  let scalar n = List.assoc n g.scalars in
  let a = scalar "a" and cc = scalar "b" *. scalar "h2inv" in
  let src = ref (Grid.copy (Artemis.Reference.find_array g.store "in"))
  and dst = ref (Grid.copy (Artemis.Reference.find_array g.store "out")) in
  let steps =
    match g.prog.main with [ Artemis.Ast.Iterate (t, _) ] -> t | _ -> invalid_arg "handloop_jacobi"
  in
  let t, () =
    wall (fun () ->
        for _ = 1 to steps do
          let (s : Grid.t) = !src and (d : Grid.t) = !dst in
          let nk = s.dims.(0) and nj = s.dims.(1) and ni = s.dims.(2) in
          let sk = s.strides.(0) and sj = s.strides.(1) in
          let x = s.data and y = d.data in
          for k = 1 to nk - 2 do
            for j = 1 to nj - 2 do
              let row = (k * sk) + (j * sj) in
              for i = 1 to ni - 2 do
                let c = row + i in
                y.(c) <-
                  (a *. x.(c))
                  -. cc
                     *. (x.(c + 1) +. x.(c - 1) +. x.(c + sj) +. x.(c - sj) +. x.(c + sk)
                         +. x.(c - sk) -. (x.(c) *. 6.0))
              done
            done
          done;
          src := d;
          dst := s
        done)
  in
  (g.points /. t /. 1e6, [ ("in", digest_grid !src); ("out", digest_grid !dst) ])

(* ---- fuzz-verify -------------------------------------------------- *)

(* The differential fuzz harness with lint armed: batches of generated
   programs of tiny grids and their sampled plans, where per-launch
   set-up and per-plan checks dominate.  Every pass checks the same
   batches, harness seeds [seed * 1000 + b] for b below [batches], so
   the timed inputs and the findings depend on --seed only, not on how
   many passes fit in the run. *)
let fuzz_verify ~small ~seed =
  let batches = if small then 2 else 10 and cases = if small then 3 else 100 in
  let batch_seeds = List.init batches (fun b -> (seed * 1000) + b) in
  let generated bs = List.init cases (fun index -> Gen.generate ~seed:bs ~index) in
  let setup () =
    let parse_s = ref 0.0 and inst_s = ref 0.0 in
    List.iter
      (fun bs ->
        List.iter
          (fun (c : Gen.case) ->
            let p, i, _, _ = front_end (Artemis.Pretty.program_to_string c.prog) in
            parse_s := !parse_s +. p;
            inst_s := !inst_s +. i)
          (generated bs))
      batch_seeds;
    { parse_s = !parse_s; inst_s = !inst_s; store_s = 0.0 }
  in
  let run_pass ~hook =
    let results =
      List.map
        (fun bs ->
          let name = Printf.sprintf "fuzz/%d" bs in
          let t, s = hook.around name (fun () -> timed (fun () -> Harness.run ~lint:true ~seed:bs ~cases ())) in
          (bs, name, t, (s : Harness.summary)))
        batch_seeds
    in
    let total f = List.fold_left (fun acc (_, _, _, s) -> acc + f s) 0 results in
    let t = sum (List.map (fun (_, _, t, _) -> t) results) in
    let replay () =
      List.filteri (fun i _ -> i < 12) (generated (List.hd batch_seeds))
      |> List.map (fun (c : Gen.case) ->
             let kernels =
               List.concat_map (function I.Launch k -> [ k ] | _ -> []) (I.schedule c.prog)
             in
             (Printf.sprintf "case%d" c.index, kernels, List.map exec_plan_of kernels))
    in
    {
      samples = List.map (fun (_, name, t, _) -> (name, t)) results;
      attempted = total (fun s -> s.cases);
      problems =
        List.concat_map
          (fun (bs, _, _, (s : Harness.summary)) ->
            List.map
              (fun (f : Harness.finding) ->
                Printf.sprintf "fuzz finding: seed %d case %d: %s" bs f.case_index
                  (String.concat "; " (List.map Artemis_verify.Oracle.mismatch_to_string f.mismatches)))
              s.findings)
          results;
      extras =
        [ ("fuzz_cases_s", float_of_int (total (fun s -> s.cases)) /. t);
          ("trials", float_of_int (total (fun s -> s.trials_run)));
          ("skipped", float_of_int (total (fun s -> s.trials_skipped))) ];
      replay;
    }
  in
  { setup; run_pass; record = (fun () -> []) }

(* ------------------------------------------------------------------ *)
(* Per-call costs replayed from outside                                 *)
(* ------------------------------------------------------------------ *)

(* Microseconds per call of [f] over [xs], looping until at least 20 ms
   have passed so short calls are resolved. *)
let per_call_us f xs =
  match xs with
  | [] -> (0.0, 0)
  | _ ->
    let calls = ref 0 in
    let t0 = now () in
    while !calls = 0 || now () -. t0 < 0.02 do
      List.iter
        (fun x ->
          ignore (Sys.opaque_identity (f x));
          incr calls)
        xs
    done;
    ((now () -. t0) *. 1e6 /. float_of_int !calls, List.length xs)

let stepped (p : Plan.t) =
  match Space.min_nonspill_regs p with
  | Some r -> { p with max_regs = r }
  | None -> { p with max_regs = 255 }

(* A plan and its search-space neighbours: every block shape at its
   unroll, every unroll vector at its block (thinned to at most 32). *)
let neighbours (w : Plan.t) =
  let rank = Plan.rank w in
  let blocks =
    Space.block_candidates ~rank ~scheme:w.scheme ~max_threads:w.device.max_threads_per_block
  in
  let unrolls = Space.unroll_candidates ~rank ~scheme:w.scheme ~bound:8 in
  let all =
    List.map (fun block -> { w with block }) blocks @ List.map (fun unroll -> { w with unroll }) unrolls
  in
  let n = List.length all in
  let step = max 1 ((n + 31) / 32) in
  w :: List.filteri (fun i _ -> i mod step = 0) all

(* Per-call costs (us) of each layer on one program's plans, with the
   call counts they were averaged over. *)
let replay_costs kernels winners =
  let raw = List.concat_map neighbours winners in
  let plans = List.map stepped raw in
  let launch_ok = List.filter (fun p -> Lint.launch_errors p = []) plans in
  let measurable = List.filter (fun p -> Lint.static_plan_errors p = []) launch_ok in
  let c f xs = per_call_us f xs in
  [ ("regstep", c Space.min_nonspill_regs raw);
    ("predict", c Artemis.Predict.rank plans);
    ("key", c Artemis.Measure_cache.key_of plans);
    ("launch", c Lint.launch_errors plans);
    ("static", c Lint.static_plan_errors launch_ok);
    ("analytic", c Artemis.Analytic.try_measure measurable);
    ("lint_plan", c Lint.lint_plan plans);
    ("lower", c (fun k -> Artemis.Lower.lower dev k Artemis.Options.default) kernels);
    ("emit", c Artemis.Cuda.emit winners) ]

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

(* Peak resident memory since the last [reset_peak_rss]: VmHWM of
   /proc/self/status. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
           Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f kB" (fun kb -> Some (kb /. 1024.0))
         else None)
  |> function
  | Some mb -> mb
  | None -> failwith "no VmHWM line in /proc/self/status"

(* Lowers VmHWM to the current resident size (Linux clear_refs code 5). *)
let reset_peak_rss () =
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")

let workloads = [ "tune-suite"; "exec-grids"; "fuzz-verify" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let jobs = ref 0 and small = ref false and record = ref false and rev = ref "none" in
  let specs =
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--jobs", Arg.Set_int jobs, " pool domains (0 = every core, the default)");
      ("--small", Arg.Set small, " small inputs (self-test scale)");
      ("--record", Arg.Set record, " print the expected values to store, then exit");
      ("--rev", Arg.Set_string rev, " source revision to report") ]
  in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("bench: unknown workload '" ^ !workload ^ "'");
    exit 2
  end;
  Pool.set_jobs !jobs;
  let small = !small in
  let expected = load_expected "perfbench/expected.txt" in
  let exec_ready = ref None in
  let w =
    match !workload with
    | "tune-suite" -> tune_suite ~small ~expected
    | "exec-grids" ->
      let w, ready = exec_grids ~small ~expected in
      exec_ready := Some ready;
      w
    | _ -> fuzz_verify ~small ~seed:!seed
  in
  if !record then begin
    List.iter (fun (k, v) -> Printf.printf "%s %s\n" k v) (w.record ());
    exit 0
  end;
  Printf.printf
    "host: nproc=%d ocaml=%s pool=%d device=%s workload=%s seed=%d seconds=%d trace=%d small=%b rev=%s\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version (Pool.parallelism ()) dev.name !workload
    !seed !seconds !trace small !rev;
  (* Set-up is repeated a fixed number of times before the passes, each
     from a collected heap, and the median repetition is reported.  The
     count is fixed because set-up gets faster as the heap grows over the
     first repetitions and faster still after the passes: a count that
     depended on elapsed time, or repetitions after the passes, would
     move the median between those states. *)
  let setups =
    List.init 11 (fun _ ->
        Gc.full_major ();
        wall (fun () -> let s = w.setup () in warm_pool (); s))
  in
  let setup_s = median (List.map fst setups) in
  let setup_part f = median (List.map (fun (_, s) -> f s) setups) in
  (* Every pass checks the same inputs, so [attempted] counts the
     operations of one pass and [failed] the distinct failed checks of
     the run: neither grows with the number of passes. *)
  let attempted = ref 0 and problems = Hashtbl.create 8 in
  let account (p : pass) =
    attempted := max !attempted p.attempted;
    List.iter
      (fun m ->
        if not (Hashtbl.mem problems m) then begin
          Hashtbl.replace problems m ();
          Printf.printf "FAIL: %s\n%!" m
        end)
      p.problems
  in
  let failed () = min !attempted (Hashtbl.length problems) in
  (* Untraced passes until the measured time is spent (at least two).
     Peak memory is taken per pass, so its median, like the times, does
     not depend on how many passes fit in the run. *)
  let passes = ref [] in
  let gc = ref [] and peaks = ref [] in
  let t_start = now () in
  while List.length !passes < 2 || now () -. t_start < float_of_int !seconds do
    reset_peak_rss ();
    let g0 = Gc.quick_stat () and c0 = Unix.times () in
    let p = w.run_pass ~hook:no_hook in
    let g1 = Gc.quick_stat () and c1 = Unix.times () in
    let cpu = c1.tms_utime +. c1.tms_stime -. c0.tms_utime -. c0.tms_stime in
    gc :=
      ( (g1.minor_words -. g0.minor_words) /. 1e6,
        (g1.promoted_words -. g0.promoted_words) /. 1e6,
        float_of_int (g1.major_collections - g0.major_collections) )
      :: !gc;
    account p;
    let peak = peak_rss_mb () in
    peaks := peak :: !peaks;
    Printf.printf "pass %d: %.4f s (process cpu %.4f s, peak %.1f MB):%s\n%!" (List.length !passes) (pass_time p)
      cpu peak
      (String.concat "" (List.map (fun (u, t) -> Printf.sprintf " %s=%.4f" u t) p.samples));
    passes := p :: !passes
  done;
  let passes = List.rev !passes in
  (* Each unit's median over the passes, summed: a transient slowdown
     during one unit moves one sample, not the figure.  [pass_s] scales
     it by the run's mean probe, which tracks the drift between runs. *)
  let pass_wall_s =
    sum
      (List.map
         (fun (unit, _) ->
           median (List.filter_map (fun p -> List.assoc_opt unit p.samples) passes))
         (List.hd passes).samples)
  in
  let probe_s = trimmed_mean !probes in
  let pass_s = pass_wall_s *. probe_ref_s /. probe_s in
  let extra name = median (List.filter_map (fun p -> List.assoc_opt name p.extras) passes) in
  let metrics =
    if !trace = 0 then
      [ ("setup_s", setup_s, "s"); ("pass_s", pass_s, "s"); ("peak_rss_mb", median !peaks, "MB") ]
    else begin
      (* One traced pass, with counter deltas per program for the cost
         attribution. *)
      M.reset ();
      let per_prog = ref [] and distinct = ref 0 in
      let around name f =
        let c0 = tune_counts () in
        let r = f () in
        per_prog := (name, counts_diff (tune_counts ()) c0) :: !per_prog;
        (* The tuner clears the cache before each program, so its size
           now is the number of distinct plans this program measured. *)
        distinct := !distinct + Artemis.Measure_cache.size ();
        r
      in
      let untraced_probes = List.length !probes in
      Trace.start ();
      let traced_s, traced =
        wall (fun () -> Trace.with_span "bench.pass" (fun () -> w.run_pass ~hook:{ around }))
      in
      Trace.stop ();
      (* The traced pass, scaled by its own probes like [pass_s]. *)
      let traced_pass_s =
        let n = List.length !probes - untraced_probes in
        pass_time traced *. probe_ref_s /. trimmed_mean (List.filteri (fun i _ -> i < n) !probes)
      in
      account traced;
      let events = Trace.events () in
      let main_tid =
        match List.find_opt (fun (e : Trace.event) -> e.name = "bench.pass") events with
        | Some e -> e.tid
        | None -> 0
      in
      let self = self_times ~main_tid events in
      let e = counter_entries () in
      let c name = counter e name in
      let jobs = float_of_int (Pool.parallelism ()) in
      (* Replayed per-call costs, per program, weighted by that
         program's own counter deltas. *)
      let replays =
        List.map (fun (name, kernels, plans) -> (name, replay_costs kernels plans)) (traced.replay ())
      in
      let pooled layer =
        let t, n =
          List.fold_left
            (fun (t, n) (_, cs) ->
              let us, calls = List.assoc layer cs in
              (t +. (us *. float_of_int calls), n + calls))
            (0.0, 0) replays
        in
        ratio t (float_of_int n)
      in
      let keep = !Artemis.Hierarchical.prerank_keep in
      let attributed_ms =
        sum
          (List.map
             (fun (name, (d : tune_counts)) ->
               match List.assoc_opt name replays with
               | None -> 0.0
               | Some cs ->
                 let us layer = fst (List.assoc layer cs) in
                 (* Pre-ranked batches keep [keep]% of their candidates,
                    so the pruned count implies the scored count. *)
                 let predicted = if keep < 100.0 then d.prerank_pruned *. 100.0 /. (100.0 -. keep) else 0.0 in
                 let regsteps = predicted +. d.keyed +. d.lint_pruned +. d.static_pruned in
                 ((us "regstep" *. regsteps) +. (us "predict" *. predicted) +. (us "key" *. d.keyed)
                  +. (us "launch" *. d.considered)
                  +. (us "static" *. (d.considered -. d.lint_pruned))
                  +. (us "analytic" *. d.analytic))
                 /. 1000.0)
             !per_prog)
      in
      let phase_self = self "tune.phase1" +. self "tune.phase2" in
      let hits = c "tuner.cache_hit" and misses = c "tuner.cache_miss" in
      let interior = c "exec.interior_points" and halo = c "exec.halo_points"
      and wavefront = c "exec.wavefront_points" and guarded = c "exec.guarded_points"
      and eliminated = c "exec.eliminated_points" in
      let all_points = interior +. halo +. wavefront +. guarded +. eliminated in
      let traced_extra k = Option.value ~default:0.0 (List.assoc_opt k traced.extras) in
      let gen_us =
        if !workload = "fuzz-verify" then
          fst (per_call_us (fun index -> Gen.generate ~seed:(!seed * 1000) ~index) (List.init 20 Fun.id))
        else 0.0
      in
      let handloop =
        match !exec_ready with
        | Some ready -> (
          match List.find_opt (fun g -> g.case.gname = "jacobi7-iter") !ready with
          | Some g ->
            let runs = List.init 3 (fun _ -> handloop_jacobi g) in
            let ref_digests =
              let store = copy_store g.store in
              Artemis.Reference.run_schedule store ~scalars:g.scalars g.sched;
              List.map (fun n -> (n, digest_grid (Artemis.Reference.find_array store n))) [ "in"; "out" ]
            in
            if List.exists (fun (_, d) -> d <> ref_digests) runs then
              print_endline "note: hand loop output differs from the executors";
            median (List.map fst runs)
          | None -> 0.0)
        | None -> 0.0
      in
      let ms x = x *. 1000.0 in
      let gc_med f = median (List.map f !gc) in
      [ ("dsl.parse_ms", ms (setup_part (fun s -> s.parse_s)), "ms");
        ("dsl.instantiate_ms", ms (setup_part (fun s -> s.inst_s)), "ms");
        ("codegen.lower_calls", c "lower.plans", "count");
        ("codegen.lower_us", pooled "lower", "us");
        ("codegen.emit_ms", pooled "emit" /. 1000.0, "ms");
        ("tune.optimize_ms", span_total_ms "optimize.kernel" events, "ms");
        ("tune.deep_ms", span_total_ms "deep.tune" events, "ms");
        ("tune.phase1_self_ms", self "tune.phase1", "ms");
        ("tune.phase2_self_ms", self "tune.phase2", "ms");
        ("tune.configs_measured", c "tuner.configs_measured", "count");
        ("tune.prerank_pruned", c "tuner.configs_prerank_pruned", "count");
        ("tune.lint_pruned", c "tuner.configs_lint_pruned", "count");
        ("tune.static_pruned", c "tuner.configs_static_pruned", "count");
        ("tune.cache_hit_ratio", ratio hits (hits +. misses), "ratio");
        ("tune.cache_key_us", pooled "key", "us");
        ("tune.measures_per_plan",
         ratio (float_of_int !distinct) (c "exec.analytic_measures"), "ratio");
        ("tune.attributed_frac", ratio attributed_ms phase_self, "ratio");
        ("tune.regstep_us", pooled "regstep", "us");
        ("plan_tflops_geo", extra "plan_tflops_geo", "TFLOPS");
        ("deep_pred_s", extra "deep_pred_s", "model_s");
        ("exec.analytic_measures", c "exec.analytic_measures", "count");
        ("exec.analytic_us", pooled "analytic", "us");
        ("exec.predict_us", pooled "predict", "us");
        ("lint.plan_us", pooled "lint_plan", "us");
        ("lint.launch_us", pooled "launch", "us");
        ("static.plan_us", pooled "static", "us");
        ("lint.findings", c "lint.findings", "count");
        ("exec.store_ms", ms (setup_part (fun s -> s.store_s)), "ms");
        ("exec.ref_ms", ms (extra "ref_s"), "ms");
        ("exec.blocks_ms", ms (extra "exec_s"), "ms");
        ("exec_mpts_s", extra "exec_mpts_s", "Mpoints/s");
        ("ref_mpts_s", extra "ref_mpts_s", "Mpoints/s");
        ("exec.handloop_mpts_s", handloop, "Mpoints/s");
        ("exec.kernel_self_ms", self "exec.kernel", "ms");
        ("exec.reference_kernel_self_ms", self "exec.reference_kernel", "ms");
        ("exec.temporal_self_ms", self "exec.temporal", "ms");
        ("exec.interior_points", interior, "count");
        ("exec.halo_points", halo, "count");
        ("exec.wavefront_points", wavefront, "count");
        ("exec.guarded_points", guarded, "count");
        ("exec.eliminated_points", eliminated, "count");
        ("exec.unguarded_frac", ratio (interior +. wavefront +. eliminated) all_points, "ratio");
        ("exec.launches", c "exec.launches", "count");
        ("fuzz_cases_s", extra "fuzz_cases_s", "cases/s");
        ("verify.plans_checked", c "verify.plans_checked", "count");
        ("verify.skip_frac", ratio (traced_extra "skipped") (traced_extra "trials"), "ratio");
        ("verify.trial_self_ms", self "verify.trial", "ms");
        ("verify.gen_us", gen_us, "us");
        ("par.jobs", jobs, "count");
        ("par.maps", c "pool.maps", "count");
        ("par.tasks", c "pool.tasks", "count");
        ("par.task_ms", span_total_ms "pool.task" events, "ms");
        ("par.busy_frac", ratio (span_total_ms "pool.task" events) (ms traced_s *. jobs), "ratio");
        ("gc.minor_mwords", gc_med (fun (m, _, _) -> m), "Mwords");
        ("gc.promoted_mwords", gc_med (fun (_, p, _) -> p), "Mwords");
        ("gc.major_collections", gc_med (fun (_, _, c) -> c), "count");
        ("obs.trace_overhead_frac", ratio (traced_pass_s -. pass_s) pass_s, "ratio");
        ("host.pass_wall_s", pass_wall_s, "s");
        ("host.probe_ms", ms probe_s, "ms");
        ("fail_frac", ratio (float_of_int (failed ())) (float_of_int !attempted), "ratio") ]
    end
  in
  let num x = if Float.is_finite x then Json.Float x else Json.Float 0.0 in
  let result =
    Json.Obj
      [ ("correct", Json.Bool (failed () = 0));
        ("attempted", Json.Int !attempted);
        ("failed", Json.Int (failed ()));
        ("metrics",
         Json.Obj
           (List.map
              (fun (name, v, unit) -> (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ]))
              metrics)) ]
  in
  print_endline (Json.to_string result)
