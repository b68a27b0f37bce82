(* The testing engine: bug search, determinism, replay, DFS ground truth. *)

module E = Psharp.Engine
module R = Psharp.Runtime
module Event = Psharp.Event
module Error = Psharp.Error
module Trace = Psharp.Trace

type Event.t += Token

(* A minimal racy program: two writers race on a shared cell via a referee
   machine; the referee asserts writer A got there first. Roughly half of
   all schedules violate it. *)
let racy_harness ctx =
  let first = ref None in
  let referee =
    R.create ctx ~name:"Referee" (fun rctx ->
        ignore (R.receive rctx);
        R.assert_here rctx (!first = Some "A") "B overtook A")
  in
  let writer name =
    fun wctx ->
      if !first = None then first := Some name;
      R.send wctx referee Token
  in
  ignore (R.create ctx ~name:"A" (writer "A"));
  ignore (R.create ctx ~name:"B" (writer "B"))

let config =
  { E.default_config with max_executions = 500; max_steps = 200 }

let test_finds_race () =
  match E.run config racy_harness with
  | E.Bug_found (report, stats) ->
    (match report.Error.kind with
     | Error.Assertion_failure _ -> ()
     | k -> Alcotest.failf "wrong kind: %s" (Error.kind_to_string k));
    Alcotest.(check bool) "few executions needed" true (stats.E.executions < 100)
  | E.No_bug _ -> Alcotest.fail "race not found"

let test_seed_determinism () =
  let run () =
    match E.run { config with seed = 99L } racy_harness with
    | E.Bug_found (report, stats) ->
      (Trace.to_string report.Error.trace, stats.E.executions)
    | E.No_bug _ -> Alcotest.fail "expected bug"
  in
  let t1, n1 = run () and t2, n2 = run () in
  Alcotest.(check string) "same trace" t1 t2;
  Alcotest.(check int) "same execution count" n1 n2

let test_replay_reproduces () =
  match E.run config racy_harness with
  | E.Bug_found (report, _) ->
    let result = E.replay config report.Error.trace racy_harness in
    (match result.R.bug with
     | Some (Error.Assertion_failure _) -> ()
     | _ -> Alcotest.fail "replay did not reproduce the bug")
  | E.No_bug _ -> Alcotest.fail "expected bug"

let test_replay_log_collected () =
  match E.run { config with collect_log_on_bug = true } racy_harness with
  | E.Bug_found (report, _) ->
    Alcotest.(check bool) "log non-empty" true (report.Error.log <> [])
  | E.No_bug _ -> Alcotest.fail "expected bug"

let test_ndc_matches_trace () =
  match E.run config racy_harness with
  | E.Bug_found (report, _) as outcome ->
    Alcotest.(check (option int)) "ndc = trace length"
      (Some (Trace.length report.Error.trace))
      (E.ndc outcome)
  | E.No_bug _ -> Alcotest.fail "expected bug"

let test_no_bug_on_correct_program () =
  let harness ctx =
    let echo =
      R.create ctx ~name:"Echo" (fun ectx -> ignore (R.receive ectx))
    in
    R.send ctx echo Token
  in
  match E.run { config with max_executions = 50 } harness with
  | E.No_bug stats -> Alcotest.(check int) "all executions ran" 50 stats.E.executions
  | E.Bug_found (r, _) ->
    Alcotest.failf "unexpected bug: %s" (Error.kind_to_string r.Error.kind)

let test_dfs_finds_and_exhausts () =
  (* DFS over the racy program must find the bug. *)
  let dfs_config =
    { config with E.strategy = E.Dfs { max_depth = 50; int_cap = 2 } }
  in
  (match E.run dfs_config racy_harness with
   | E.Bug_found _ -> ()
   | E.No_bug _ -> Alcotest.fail "dfs should find the race");
  (* And on a correct program it must exhaust the space. *)
  let harness ctx =
    let echo = R.create ctx ~name:"Echo" (fun ectx -> ignore (R.receive ectx)) in
    R.send ctx echo Token
  in
  match E.run { dfs_config with max_executions = 10_000 } harness with
  | E.No_bug stats ->
    Alcotest.(check bool) "search exhausted" true stats.E.search_exhausted
  | E.Bug_found (r, _) ->
    Alcotest.failf "unexpected bug: %s" (Error.kind_to_string r.Error.kind)

let test_pct_finds_race () =
  let pct_config = { config with E.strategy = E.Pct { change_points = 2 } } in
  match E.run pct_config racy_harness with
  | E.Bug_found _ -> ()
  | E.No_bug _ -> Alcotest.fail "pct should find the race"

let test_monitors_fresh_per_execution () =
  (* The monitor accumulates one notification per execution; if the engine
     failed to create fresh monitors, the count would exceed 1 and fail. *)
  let harness ctx = R.notify ctx "Fresh" Token in
  let monitors () =
    let count = ref 0 in
    [
      Psharp.Monitor.make ~name:"Fresh" ~initial:"S"
        ~states:[ ("S", Psharp.Monitor.Neutral) ]
        (fun m _ ->
          incr count;
          Psharp.Monitor.assert_ m (!count <= 1) "stale monitor state");
    ]
  in
  match E.run ~monitors { config with max_executions = 20 } harness with
  | E.No_bug _ -> ()
  | E.Bug_found (r, _) ->
    Alcotest.failf "monitor state leaked: %s" (Error.kind_to_string r.Error.kind)

let suite =
  [
    Alcotest.test_case "finds a simple race" `Quick test_finds_race;
    Alcotest.test_case "seeded determinism" `Quick test_seed_determinism;
    Alcotest.test_case "replay reproduces" `Quick test_replay_reproduces;
    Alcotest.test_case "log collected on bug" `Quick test_replay_log_collected;
    Alcotest.test_case "ndc equals trace length" `Quick test_ndc_matches_trace;
    Alcotest.test_case "no false positives" `Quick test_no_bug_on_correct_program;
    Alcotest.test_case "dfs finds and exhausts" `Quick test_dfs_finds_and_exhausts;
    Alcotest.test_case "pct finds race" `Quick test_pct_finds_race;
    Alcotest.test_case "monitors fresh per execution" `Quick
      test_monitors_fresh_per_execution;
  ]

let test_survey_collects_distinct_bugs () =
  (* The replication bug-1 harness produces distinct violations (one per
     request the early ack can hit); survey must dedupe and count. *)
  let cfg =
    {
      E.default_config with
      max_executions = 800;
      max_steps = 2_000;
      seed = 0L;
    }
  in
  let found =
    E.survey
      ~monitors:(fun () -> Replication.Harness.monitors ())
      cfg
      (Replication.Harness.test ~bugs:Replication.Bug_flags.bug1 ())
  in
  Alcotest.(check bool) "at least one distinct bug" true (found <> []);
  List.iter
    (fun (report, n) ->
      Alcotest.(check bool) "positive count" true (n > 0);
      Alcotest.(check bool) "has witness" true
        (Trace.length report.Error.trace > 0))
    found

let test_survey_empty_on_correct_system () =
  let cfg = { E.default_config with max_executions = 50; max_steps = 200 } in
  Alcotest.(check int) "no violations" 0
    (List.length (E.survey cfg (fun _ctx -> ())))

(* run, explore and survey share one execution loop, so on the same
   config they must agree: survey's first report of a kind is run's
   witness, and explore over run's executions measures run's coverage.
   The fuzz row holds only if every mode feeds coverage back to the
   strategy. The coverage check is single-worker: a parallel run may also
   execute iterations past its winner, which explore's prefix budget
   would not cover. *)
let test_run_survey_explore_agree () =
  let entry = Catalog.Bug_catalog.find "ExampleDuplicateReplicaAck" in
  let monitors = entry.Catalog.Bug_catalog.monitors in
  let harness = entry.Catalog.Bug_catalog.harness in
  let base =
    {
      E.default_config with
      seed = 2L;
      max_executions = 2_000;
      max_steps = entry.Catalog.Bug_catalog.max_steps;
      collect_coverage = true;
    }
  in
  Unix.putenv "PSHARP_OVERSUBSCRIBE" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "PSHARP_OVERSUBSCRIBE" "0")
  @@ fun () ->
  List.iter
    (fun (label, strategy, worker_counts) ->
      List.iter
        (fun workers ->
          let tag = Printf.sprintf "%s/%d-worker" label workers in
          let cfg = { base with E.strategy; workers } in
          match E.run ~monitors cfg harness with
          | E.No_bug _ -> Alcotest.failf "%s: no bug found" tag
          | E.Bug_found (witness, stats) ->
            let kind = Error.kind_to_string witness.Error.kind in
            let budget = { cfg with E.max_executions = stats.E.executions } in
            (match
               List.find_opt
                 (fun (r, _) -> Error.kind_to_string r.Error.kind = kind)
                 (E.survey ~monitors budget harness)
             with
             | None -> Alcotest.failf "%s: survey missed %s" tag kind
             | Some (first, _) ->
               Alcotest.(check string)
                 (tag ^ ": survey's first report is run's witness")
                 (Trace.to_string witness.Error.trace)
                 (Trace.to_string first.Error.trace));
            if workers = 1 then
              let explored = E.explore ~monitors budget harness in
              Alcotest.(check bool)
                (tag ^ ": explore coverage = run coverage")
                true
                (match (stats.E.coverage, explored.E.coverage) with
                 | Some a, Some b -> Psharp.Coverage.equal a b
                 | _ -> false))
        worker_counts)
    [
      ("random", E.Random, [ 1; 2 ]);
      ("pct", E.Pct { change_points = 2 }, [ 1; 2 ]);
      (* fuzz is parallel-safe only with an exchange hub, whose pulls
         depend on timing *)
      ("fuzz", E.Fuzz { corpus_cap = 8 }, [ 1 ]);
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "survey collects distinct bugs" `Slow
        test_survey_collects_distinct_bugs;
      Alcotest.test_case "survey empty on correct system" `Quick
        test_survey_empty_on_correct_system;
      Alcotest.test_case "run, survey and explore agree" `Quick
        test_run_survey_explore_agree;
    ]
