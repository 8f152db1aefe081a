(* Observability tests: span nesting and ordering, metric registration
   and snapshots, Chrome-JSON well-formedness (round-trip through our own
   parser), zero-cost disabled mode, and the stability of the
   --report-json schema on a suite stencil. *)

module Trace = Artemis_obs.Trace
module Metrics = Artemis_obs.Metrics
module Json = Artemis_obs.Json
module Suite = Artemis_bench.Suite

let case name f = Alcotest.test_case name `Quick f

(* Deterministic clock: every read advances 1 ms. *)
let install_fake_clock () =
  let t = ref 0.0 in
  Trace.set_clock (fun () ->
      t := !t +. 0.001;
      !t)

let jacobi64 () =
  List.hd (Suite.kernels (Suite.at_size 64 (Suite.find "7pt-smoother")))

let names evs = List.map (fun (e : Trace.event) -> e.name) evs

let find_event name evs =
  match List.find_opt (fun (e : Trace.event) -> e.name = name) evs with
  | Some e -> e
  | None -> Alcotest.failf "expected an event named %s" name

let tests =
  ( "obs",
    [
      case "nested spans close inner-first with containment" (fun () ->
          install_fake_clock ();
          Trace.start ();
          Trace.with_span "outer" (fun () ->
              Trace.instant "mark";
              Trace.with_span "inner" (fun () -> ()));
          Trace.stop ();
          let evs = Trace.events () in
          Alcotest.(check (list string))
            "emission order: instant, then inner close, then outer close"
            [ "mark"; "inner"; "outer" ] (names evs);
          let outer = find_event "outer" evs and inner = find_event "inner" evs in
          Alcotest.(check int) "outer at depth 0" 0 outer.depth;
          Alcotest.(check int) "inner at depth 1" 1 inner.depth;
          Alcotest.(check bool) "inner starts after outer" true
            (inner.ts_us >= outer.ts_us);
          Alcotest.(check bool) "inner contained in outer" true
            (inner.ts_us +. inner.dur_us <= outer.ts_us +. outer.dur_us))
      ;
      case "timestamps are monotonic and relative to start" (fun () ->
          install_fake_clock ();
          Trace.start ();
          Trace.instant "a";
          Trace.instant "b";
          Trace.instant "c";
          Trace.stop ();
          let ts = List.map (fun (e : Trace.event) -> e.ts_us) (Trace.events ()) in
          Alcotest.(check bool) "strictly increasing" true
            (List.sort compare ts = ts && List.sort_uniq compare ts = ts);
          List.iter
            (fun t -> Alcotest.(check bool) "non-negative" true (t >= 0.0))
            ts)
      ;
      case "span closes when the body raises" (fun () ->
          install_fake_clock ();
          Trace.start ();
          (try Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
          Trace.with_span "after" (fun () -> ());
          Trace.stop ();
          let evs = Trace.events () in
          Alcotest.(check (list string)) "both spans recorded" [ "boom"; "after" ]
            (names evs);
          Alcotest.(check int) "depth restored" 0 (find_event "after" evs).depth)
      ;
      case "disabled mode records nothing and runs the body once" (fun () ->
          Trace.start ();
          Trace.stop ();
          (* disabled, buffer cleared by start *)
          Alcotest.(check bool) "disabled" false (Trace.enabled ());
          let runs = ref 0 in
          let v =
            Trace.with_span "invisible" (fun () ->
                incr runs;
                Trace.instant "also-invisible";
                42)
          in
          Alcotest.(check int) "body ran once" 1 !runs;
          Alcotest.(check int) "value passes through" 42 v;
          Alcotest.(check int) "no events allocated" 0 (Trace.event_count ());
          Alcotest.(check (list pass)) "empty buffer" [] (Trace.events ()))
      ;
      case "counters and gauges register idempotently" (fun () ->
          let c = Metrics.counter "test.counter" ~labels:[ ("k", "v") ] in
          let c' = Metrics.counter ~labels:[ ("k", "v") ] "test.counter" in
          Metrics.incr c;
          Metrics.incr ~by:2.5 c';
          Alcotest.(check (float 0.0)) "same handle" 3.5 (Metrics.counter_value c);
          let g = Metrics.gauge "test.gauge" in
          Metrics.set g 7.0;
          Alcotest.(check (float 0.0)) "gauge" 7.0 (Metrics.gauge_value g))
      ;
      case "metrics snapshot is parseable JSON with both kinds" (fun () ->
          Metrics.incr (Metrics.counter "test.snap_counter");
          Metrics.set (Metrics.gauge "test.snap_gauge") 1.25;
          let doc = Json.parse (Json.to_string ~indent:true (Metrics.snapshot ())) in
          let section name =
            match Option.bind (Json.member name doc) Json.to_list_opt with
            | Some l -> l
            | None -> Alcotest.failf "snapshot lacks %s" name
          in
          let has name entries =
            List.exists
              (fun e ->
                Option.bind (Json.member "name" e) Json.to_string_opt = Some name)
              entries
          in
          Alcotest.(check bool) "counter present" true
            (has "test.snap_counter" (section "counters"));
          Alcotest.(check bool) "gauge present" true
            (has "test.snap_gauge" (section "gauges")))
      ;
      case "chrome export round-trips through the JSON parser" (fun () ->
          install_fake_clock ();
          Trace.start ();
          Trace.with_span "sp" ~attrs:[ ("k", Str "va\"l\nue"); ("n", Int 3) ]
            (fun () -> Trace.instant "ev" ~attrs:[ ("f", Float 1.5); ("b", Bool true) ]);
          Trace.stop ();
          let doc = Json.parse (Trace.to_chrome_string ()) in
          let events =
            match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
            | Some l -> l
            | None -> Alcotest.fail "no traceEvents array"
          in
          Alcotest.(check int) "all events exported" (Trace.event_count ())
            (List.length events);
          List.iter
            (fun ev ->
              List.iter
                (fun key ->
                  Alcotest.(check bool) (key ^ " present") true
                    (Json.member key ev <> None))
                [ "name"; "ph"; "ts"; "pid"; "tid"; "args" ])
            events;
          let span =
            List.find
              (fun ev ->
                Option.bind (Json.member "ph" ev) Json.to_string_opt = Some "X")
              events
          in
          Alcotest.(check bool) "span has dur" true (Json.member "dur" span <> None);
          let attr =
            Option.bind (Json.member "args" span) (Json.member "k")
          in
          Alcotest.(check (option string)) "escaped attr round-trips"
            (Some "va\"l\nue")
            (Option.bind attr Json.to_string_opt))
      ;
      case "json parser handles escapes, numbers, and rejects garbage" (fun () ->
          (match Json.parse "[1, -2.5e3, \"a\\u0041b\", true, false, null, {}]" with
           | Json.List
               [ Json.Int 1; Json.Float f; Json.Str "aAb"; Json.Bool true;
                 Json.Bool false; Json.Null; Json.Obj [] ] ->
             Alcotest.(check (float 0.0)) "float" (-2500.0) f
           | _ -> Alcotest.fail "unexpected parse");
          List.iter
            (fun bad ->
              match Json.parse bad with
              | exception Json.Parse_error _ -> ()
              | _ -> Alcotest.failf "expected parse failure on %s" bad)
            [ "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "" ])
      ;
      case "optimize under tracing emits phase spans and config events" (fun () ->
          install_fake_clock ();
          Trace.start ();
          let r = Artemis.optimize_kernel (jacobi64 ()) in
          Trace.stop ();
          let evs = Trace.events () in
          let count name =
            List.length (List.filter (fun (e : Trace.event) -> e.name = name) evs)
          in
          Alcotest.(check bool) "tune.phase1 span" true (count "tune.phase1" >= 1);
          Alcotest.(check bool) "tune.phase2 span" true (count "tune.phase2" >= 1);
          Alcotest.(check bool) "one config event per measured config" true
            (count "tuner.config" >= r.explored);
          (* Every config event carries the plan label and a decision. *)
          List.iter
            (fun (e : Trace.event) ->
              if e.name = "tuner.config" then begin
                Alcotest.(check bool) "has plan" true
                  (List.mem_assoc "plan" e.attrs);
                match List.assoc_opt "decision" e.attrs with
                | Some (Trace.Str ("keep" | "drop" | "pruned")) -> ()
                | _ -> Alcotest.fail "config event lacks a keep/drop/pruned decision"
              end)
            evs)
      ;
      case "report JSON schema is stable on a suite stencil" (fun () ->
          let r = Artemis.optimize_kernel (jacobi64 ()) in
          let doc = Json.parse (Artemis.report_json_of r) in
          Alcotest.(check (list string)) "top-level keys"
            [ "schema_version"; "kernel"; "baseline"; "tuned"; "speedup";
              "explored"; "history"; "hints" ]
            (Json.keys doc);
          let measurement_keys =
            [ "plan"; "tflops"; "time_s"; "counters"; "resources"; "breakdown";
              "profile" ]
          in
          List.iter
            (fun section ->
              match Json.member section doc with
              | Some m ->
                Alcotest.(check (list string)) (section ^ " keys") measurement_keys
                  (Json.keys m)
              | None -> Alcotest.failf "missing %s" section)
            [ "baseline"; "tuned" ];
          let profile =
            Option.bind (Json.member "tuned" doc) (Json.member "profile")
          in
          (match profile with
           | Some p ->
             Alcotest.(check (list string)) "profile keys"
               [ "oi_dram"; "oi_tex"; "oi_shm"; "knee_dram"; "knee_tex";
                 "knee_shm"; "verdict"; "verdict_tag"; "achieved_fraction" ]
               (Json.keys p)
           | None -> Alcotest.fail "missing tuned.profile");
          (match Option.bind (Json.member "explored" doc) Json.to_float_opt with
           | Some n -> Alcotest.(check bool) "explored > 0" true (n > 0.0)
           | None -> Alcotest.fail "missing explored");
          match Option.bind (Json.member "history" doc) Json.to_list_opt with
          | Some (entry :: _) ->
            Alcotest.(check (list string)) "history entry keys" [ "plan"; "tflops" ]
              (Json.keys entry)
          | Some [] -> Alcotest.fail "empty tuning history"
          | None -> Alcotest.fail "missing history")
      ;
    ] )
