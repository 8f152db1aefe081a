(* Fuzz harness driver. *)

module A = Artemis_dsl.Ast
module Pretty = Artemis_dsl.Pretty
module Trace = Artemis_obs.Trace
module Metrics = Artemis_obs.Metrics
module Pool = Artemis_par.Pool

let m_cases = Metrics.counter "verify.cases_generated"
let m_plans = Metrics.counter "verify.plans_checked"
let m_mismatches = Metrics.counter "verify.mismatches"
let m_skipped = Metrics.counter "verify.trials_skipped"

type finding = {
  case_index : int;
  trial : Sampler.trial;
  mismatches : Oracle.mismatch list;
  prog : A.program;
  shrink_steps : int;
}

type summary = {
  seed : int;
  cases : int;
  trials_run : int;
  trials_skipped : int;
  plans_checked : int;
  shrink_steps : int;
  findings : finding list;
}

let render_finding ~seed (f : finding) =
  let base = Printf.sprintf "repro-seed%d-case%d" seed f.case_index in
  let stc = Pretty.program_to_string f.prog in
  let desc =
    String.concat "\n"
      ([ Printf.sprintf "seed      : %d" seed;
         Printf.sprintf "case      : %d" f.case_index;
         Printf.sprintf "trial     : %s" (Sampler.trial_label f.trial);
         Printf.sprintf "shrunk in : %d step(s)" f.shrink_steps;
         Printf.sprintf "replay    : artemisc fuzz --seed %d --cases %d" seed
           (f.case_index + 1);
         "mismatches:" ]
      @ List.map (fun m -> "  - " ^ Oracle.mismatch_to_string m) f.mismatches)
    ^ "\n"
  in
  [ (base ^ ".stc", stc); (base ^ ".repro.txt", desc) ]

let dump_finding ~dir ~seed f =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.map
    (fun (name, contents) ->
      let path = Filename.concat dir name in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc contents);
      path)
    (render_finding ~seed f)

let run ?dump_dir ?(lint = false) ~seed ~cases () =
  Trace.with_span "verify.run" ~attrs:[ ("seed", Int seed); ("cases", Int cases) ]
  @@ fun () ->
  let fails prog trial =
    match Oracle.check ~lint prog trial with
    | Oracle.Checked { mismatches = _ :: _; _ } -> true
    | Oracle.Checked { mismatches = []; _ } | Oracle.Skipped _ -> false
  in
  (* One case = generate + all its trials + any shrinking: a pure function
     of (seed, index), so whole cases fan out across the pool.  Aggregation
     — counters, skip instants, finding dumps — happens afterwards on the
     main domain in case order, keeping summaries and repro files identical
     at any jobs setting. *)
  let run_case index =
    Trace.with_span "verify.case" ~attrs:[ ("index", Int index) ] @@ fun () ->
    let case = Gen.generate ~seed ~index in
    let trial_rng = Rng.make2 (seed lxor 0x5eed) index in
    List.map
      (fun trial ->
        match Oracle.check ~lint case.prog trial with
        | Oracle.Skipped reason -> `Skipped reason
        | Oracle.Checked { plans; mismatches = [] } -> `Ok plans
        | Oracle.Checked { plans; mismatches = _ :: _ } ->
          let r = Shrink.minimize ~fails case.prog trial in
          (* Report the shrunk repro's own mismatches (the shrinker only
             keeps candidates that still fail). *)
          let mismatches =
            match Oracle.check ~lint r.prog r.trial with
            | Oracle.Checked { mismatches = ms; _ } -> ms
            | Oracle.Skipped _ -> []
          in
          `Finding
            ( plans,
              { case_index = index; trial = r.trial; mismatches; prog = r.prog;
                shrink_steps = r.steps } ))
      (Sampler.trials trial_rng case)
  in
  let case_results = Pool.map ~label:"verify.case" run_case (List.init cases Fun.id) in
  let trials_run = ref 0 in
  let trials_skipped = ref 0 in
  let plans_checked = ref 0 in
  let shrink_steps = ref 0 in
  let findings = ref [] in
  List.iter
    (fun outcomes ->
      Metrics.incr m_cases;
      List.iter
        (fun outcome ->
          incr trials_run;
          match outcome with
          | `Skipped reason ->
            incr trials_skipped;
            Metrics.incr m_skipped;
            Trace.instant "verify.skip" ~attrs:[ ("reason", Str reason) ]
          | `Ok plans ->
            plans_checked := !plans_checked + plans;
            Metrics.incr ~by:(float_of_int plans) m_plans
          | `Finding (plans, (f : finding)) ->
            plans_checked := !plans_checked + plans;
            Metrics.incr ~by:(float_of_int plans) m_plans;
            Metrics.incr m_mismatches;
            shrink_steps := !shrink_steps + f.shrink_steps;
            findings := f :: !findings;
            Option.iter (fun dir -> ignore (dump_finding ~dir ~seed f)) dump_dir)
        outcomes)
    case_results;
  {
    seed;
    cases;
    trials_run = !trials_run;
    trials_skipped = !trials_skipped;
    plans_checked = !plans_checked;
    shrink_steps = !shrink_steps;
    findings = List.rev !findings;
  }

let summary_to_string (s : summary) =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "fuzz: seed %d, %d case(s), %d trial(s) (%d skipped), %d plan(s) checked\n"
    s.seed s.cases s.trials_run s.trials_skipped s.plans_checked;
  (match s.findings with
  | [] -> Printf.bprintf b "no mismatches found\n"
  | fs ->
    Printf.bprintf b "%d finding(s), %d shrink step(s):\n" (List.length fs)
      s.shrink_steps;
    List.iter
      (fun f ->
        Printf.bprintf b "  case %d [%s]:\n" f.case_index
          (Sampler.trial_label f.trial);
        List.iter
          (fun m -> Printf.bprintf b "    %s\n" (Oracle.mismatch_to_string m))
          f.mismatches)
      fs);
  Buffer.contents b
