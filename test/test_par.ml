(* Parallel infrastructure tests: the domain work pool (ordering,
   exceptions, nesting, core-count clamp), jobs=1 vs jobs=4 determinism
   of the tuning and fuzzing pipelines, measurement-cache correctness,
   and compiled-evaluator equivalence with the interpreter. *)

module Pool = Artemis_par.Pool
module Cache = Artemis_tune.Measure_cache
module H = Artemis_tune.Hierarchical
module Metrics = Artemis_obs.Metrics
module Plan = Artemis_ir.Plan
module E = Artemis_exec
module O = Artemis_codegen.Options
module Suite = Artemis_bench.Suite

let case name f = Alcotest.test_case name `Quick f
let dev = Artemis_gpu.Device.p100

(* Run [f] with the pool and cache globals pinned, restoring them (and
   tearing the pool down lazily via set_jobs) afterwards. *)
let with_globals ~jobs ?(force = false) f =
  let saved_jobs = Pool.jobs () in
  let saved_force = !Pool.force_parallel in
  Pool.force_parallel := force;
  Pool.set_jobs jobs;
  Fun.protect
    ~finally:(fun () ->
      Pool.force_parallel := saved_force;
      Pool.set_jobs saved_jobs)
    f

let smoother_kernel () = List.hd (Suite.kernels (Suite.find "7pt-smoother"))

(* Artifact strings for the determinism checks: every observable output
   of each pipeline, rendered once so jobs=1 and jobs=4 runs compare as
   plain string equality. *)
let optimize_artifact () =
  Cache.clear ();
  let r = Artemis.optimize_kernel (smoother_kernel ()) in
  Printf.sprintf "%s explored=%d" (Plan.label r.tuned.plan) r.explored

let deep_artifact () =
  Cache.clear ();
  let b = Suite.find "7pt-smoother" in
  let dr = Artemis.deep_tune ~max_tile:2 b.prog in
  String.concat ";"
    (List.map
       (fun (v : Artemis.Deep.version) ->
         Printf.sprintf "%d:%s" v.time_tile (Plan.label v.record.best.plan))
       dr.deep.versions)
  ^ Printf.sprintf "|cusp=%d|sched=[%s]" dr.deep.cusp
      (String.concat ";" (List.map string_of_int dr.schedule))

let fuzz_artifact () =
  Artemis_verify.Harness.summary_to_string
    (Artemis_verify.Harness.run ~lint:true ~seed:5 ~cases:6 ())

let check_deterministic name artifact =
  let serial = with_globals ~jobs:1 artifact in
  let parallel = with_globals ~jobs:4 ~force:true artifact in
  Alcotest.(check string) name serial parallel

let pool_tests =
  [
    case "serial map equals List.map in order" (fun () ->
        with_globals ~jobs:1 (fun () ->
            let xs = List.init 20 Fun.id in
            Alcotest.(check (list int))
              "identical" (List.map (fun x -> (x * x) + 1) xs)
              (Pool.map (fun x -> (x * x) + 1) xs)));
    case "forced-parallel map preserves input order" (fun () ->
        with_globals ~jobs:4 ~force:true (fun () ->
            let xs = List.init 101 Fun.id in
            Alcotest.(check (list int))
              "identical" (List.map (fun x -> (x * 3) - 7) xs)
              (Pool.map ~label:"test" (fun x -> (x * 3) - 7) xs)));
    case "lowest-index exception is the one re-raised" (fun () ->
        with_globals ~jobs:4 ~force:true (fun () ->
            match
              Pool.map
                (fun i ->
                  if i = 3 || i = 11 then failwith (string_of_int i) else i)
                (List.init 16 Fun.id)
            with
            | _ -> Alcotest.fail "expected an exception"
            | exception Failure msg -> Alcotest.(check string) "index" "3" msg));
    case "nested map degrades to serial without deadlock" (fun () ->
        with_globals ~jobs:4 ~force:true (fun () ->
            let rows =
              Pool.map
                (fun i -> Pool.map (fun j -> (i * 10) + j) (List.init 5 Fun.id))
                (List.init 4 Fun.id)
            in
            Alcotest.(check (list (list int)))
              "identical"
              (List.init 4 (fun i -> List.init 5 (fun j -> (i * 10) + j)))
              rows));
    case "parallelism is clamped to the core count" (fun () ->
        with_globals ~jobs:4 (fun () ->
            Alcotest.(check int) "jobs records the request" 4 (Pool.jobs ());
            Alcotest.(check bool) "clamped by cores" true
              (Pool.parallelism () <= Domain.recommended_domain_count ());
            Alcotest.(check bool) "clamped by jobs" true
              (Pool.parallelism () <= Pool.jobs ());
            Pool.force_parallel := true;
            Alcotest.(check int) "forced lifts the clamp" 4 (Pool.parallelism ())));
  ]

let determinism_tests =
  [
    case "optimize: jobs=4 plan identical to jobs=1" (fun () ->
        check_deterministic "optimize artifact" optimize_artifact);
    case "deep: jobs=4 versions and schedule identical to jobs=1" (fun () ->
        check_deterministic "deep artifact" deep_artifact);
    case "fuzz: jobs=4 summary identical to jobs=1" (fun () ->
        check_deterministic "fuzz artifact" fuzz_artifact);
  ]

let cache_tests =
  [
    case "structurally equal plans share a key" (fun () ->
        let p = Artemis_codegen.Lower.lower dev (smoother_kernel ()) O.default in
        let q = { p with Plan.block = Array.copy p.block } in
        Alcotest.(check bool) "physically distinct" true (p != q);
        Alcotest.(check bool) "same key" true (Cache.key_of p = Cache.key_of q));
    case "distinct plans get distinct keys" (fun () ->
        let p = Artemis_codegen.Lower.lower dev (smoother_kernel ()) O.default in
        let block = Array.copy p.block in
        block.(Array.length block - 1) <- 2 * block.(Array.length block - 1);
        let q = { p with Plan.block } in
        Alcotest.(check bool) "keys differ" true
          (Cache.key_of p <> Cache.key_of q));
    case "warm tune measures zero new configurations" (fun () ->
        with_globals ~jobs:1 (fun () ->
            Cache.clear ();
            let m = Metrics.counter "exec.analytic_measures" in
            let base =
              Artemis_codegen.Lower.lower dev (smoother_kernel ()) O.default
            in
            let cold = Option.get (H.tune base) in
            let after_cold = Metrics.counter_value m in
            Alcotest.(check bool) "cold run measured" true
              (after_cold > 0.0 && Cache.size () > 0);
            let warm = Option.get (H.tune base) in
            Alcotest.(check (float 0.0))
              "no new measurements" after_cold (Metrics.counter_value m);
            Alcotest.(check string) "same best plan"
              (Plan.label cold.best.plan) (Plan.label warm.best.plan);
            Alcotest.(check int) "same exploration" cold.explored warm.explored));
  ]

let eval_src =
  {|parameter L=24; iterator i, j; double u[L,L], v[L,L]; copyin v;
    stencil s0 (x, y) {
      double t = 0.25 * (y[i-1][j] + y[i+1][j] + y[i][j-1] + y[i][j+1]);
      x[i][j] = t + sqrt(fabs(t)) + min(t, fma(t, t, 0.5));
    }
    s0 (u, v); copyout u;|}

(* Reference and block-executor copyouts of [prog] under [mode]. *)
let copyouts ~mode (prog : Artemis.Ast.program) =
  let scalars = E.Reference.scalars_of_program prog in
  let sched = Artemis.Instantiate.schedule prog in
  let ref_store = E.Reference.store_of_program prog in
  E.Reference.run_schedule ~mode ref_store ~scalars sched;
  let store = E.Reference.store_of_program prog in
  let steps =
    E.Runner.configure ~plan_of:(fun k -> Util.valid_lower k O.default) sched
  in
  ignore (E.Runner.run_schedule ~mode steps store ~scalars);
  List.concat_map
    (fun n ->
      [ E.Reference.find_array ref_store n; E.Reference.find_array store n ])
    prog.copyout

let eval_tests =
  [
    case "interpreter / compiled / split evaluators match bit-for-bit"
      (fun () ->
        let prog = Artemis.parse_string eval_src in
        let k = Artemis.first_kernel prog in
        let scalars = E.Reference.scalars_of_program prog in
        let run mode =
          let store = E.Reference.store_of_program prog in
          E.Reference.run_kernel ~mode store ~scalars k;
          E.Reference.find_array store "u"
        in
        let split = run E.Eval.Split in
        Alcotest.(check (float 0.0))
          "split == interpreter" 0.0
          (E.Grid.max_abs_diff split (run E.Eval.Interpreted));
        Alcotest.(check (float 0.0))
          "split == compiled" 0.0
          (E.Grid.max_abs_diff split (run E.Eval.Guarded)));
    case "fuzz: split on/off summaries identical at jobs=4" (fun () ->
        (* The mode travels with the call, so the wavefront bands the
           pool runs on worker domains see it too. *)
        with_globals ~jobs:4 ~force:true (fun () ->
            for index = 0 to 5 do
              let prog = (Artemis_verify.Gen.generate ~seed:5 ~index).prog in
              List.iter2
                (fun a b ->
                  Alcotest.(check (float 0.0))
                    (Printf.sprintf "case %d: split == guarded" index)
                    0.0 (E.Grid.max_abs_diff a b))
                (copyouts ~mode:E.Eval.Split prog)
                (copyouts ~mode:E.Eval.Guarded prog)
            done));
  ]

let tests = ("par", pool_tests @ determinism_tests @ cache_tests @ eval_tests)
