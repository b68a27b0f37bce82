(* Scenario conformance battery (ISSUE 10 satellite 1).

   Every catalog scenario is run against every one of its target bugs and
   each sampled execution is revalidated with [Scenario.check] — the
   journal-based checker that recomputes trigger and window state
   independently of the enforcement code in the strategy wrapper — plus
   the wrapper's own wedge counter and enforcement self-checks. The
   battery also pins catalog shape (>= 15 scenarios, every entry >= 2
   targets spanning >= 2 case studies, all targets real), journal
   determinism at a fixed seed, and worker-count invariance (the multiset
   of journals is identical for any worker count, because parallel runs
   explore exactly the sequential schedule set). *)

module E = Psharp.Engine
module Scenario = Psharp.Scenario
module Scat = Catalog.Scenario_catalog
module Bug = Catalog.Bug_catalog

(* Executions sampled per scenario, split across its targets. *)
let battery_budget = 500

(* --- per-run audit accumulator ------------------------------------------- *)

type acc = {
  mu : Mutex.t;
  mutable executions : int;
  mutable wedges : int;
  mutable enforcement : string list;  (* wrapper self-check failures *)
  mutable check_failures : string list;  (* independent checker *)
  mutable journals : string list;  (* rendered, reverse audit order *)
}

let fresh_acc () =
  {
    mu = Mutex.create ();
    executions = 0;
    wedges = 0;
    enforcement = [];
    check_failures = [];
    journals = [];
  }

let render_journal obs =
  String.concat "\n"
    (List.map Scenario.journal_entry_to_string (Scenario.Obs.journal obs))

let audit scenario ?(keep_journals = false) acc obs =
  Mutex.protect acc.mu (fun () ->
      acc.executions <- acc.executions + 1;
      acc.wedges <- acc.wedges + Scenario.Obs.wedges obs;
      acc.enforcement <- Scenario.Obs.violations obs @ acc.enforcement;
      (match Scenario.check scenario (Scenario.Obs.journal obs) with
       | Ok () -> ()
       | Error vs -> acc.check_failures <- vs @ acc.check_failures);
      if keep_journals then acc.journals <- render_journal obs :: acc.journals)

(* Run [executions] schedules of [target]'s harness under the scenario and
   return the audit accumulator. [E.explore] never stops at a bug, so the
   full budget is always sampled. *)
let sample ?(keep_journals = false) ?(workers = 1) ~seed ~executions scenario
    target =
  let entry = Bug.find target in
  let acc = fresh_acc () in
  let config =
    {
      E.default_config with
      strategy = E.Random;
      seed;
      max_executions = executions;
      max_steps = entry.Bug.max_steps;
      workers;
      faults = Scenario.arm scenario entry.Bug.faults;
      clock = entry.Bug.clock;
      scenario = Some scenario;
      scenario_audit = Some (audit scenario ~keep_journals acc);
    }
  in
  let (_ : E.stats) =
    E.explore ~monitors:entry.Bug.monitors config entry.Bug.harness
  in
  acc

let head_of = function [] -> "-" | v :: _ -> v

(* --- catalog shape ------------------------------------------------------- *)

let test_catalog_shape () =
  let n = List.length Scat.all in
  if n < 15 then Alcotest.failf "only %d scenarios in the catalog" n;
  let names = List.map (fun e -> e.Scat.name) Scat.all in
  if List.length (List.sort_uniq compare names) <> n then
    Alcotest.fail "duplicate scenario names";
  List.iter
    (fun e ->
      if List.length e.Scat.targets < 2 then
        Alcotest.failf "%s has fewer than two targets" e.Scat.name;
      let studies =
        List.sort_uniq compare
          (List.map
             (fun t ->
               match Bug.find t with
               | entry -> (
                   (* The sample case study holds two genuinely different
                      harnesses (Paxos and Raft); split it by bug-name
                      prefix so either counts as its own harness. *)
                   match Bug.case_study_to_string entry.Bug.case_study with
                   | "s" when String.length t >= 5 && String.sub t 0 5 = "Paxos"
                     -> "s:paxos"
                   | "s" -> "s:raft"
                   | k -> k)
               | exception Invalid_argument _ ->
                 Alcotest.failf "%s targets unknown bug %s" e.Scat.name t)
             e.Scat.targets)
      in
      if List.length studies < 2 then
        Alcotest.failf "%s does not span two harnesses (only %s)" e.Scat.name
          (String.concat "," studies))
    Scat.all

(* --- conformance over the whole catalog ---------------------------------- *)

let test_conformance entry () =
  let targets = entry.Scat.targets in
  let per =
    (battery_budget + List.length targets - 1) / List.length targets
  in
  List.iteri
    (fun i target ->
      let acc =
        sample ~seed:(Int64.of_int (31 * i)) ~executions:per
          entry.Scat.scenario target
      in
      if acc.executions <> per then
        Alcotest.failf "%s on %s: sampled %d of %d executions" entry.Scat.name
          target acc.executions per;
      if acc.wedges <> 0 then
        Alcotest.failf "%s on %s: %d wedge(s) over %d executions"
          entry.Scat.name target acc.wedges per;
      if acc.enforcement <> [] then
        Alcotest.failf "%s on %s: %d enforcement violation(s), first: %s"
          entry.Scat.name target
          (List.length acc.enforcement)
          (head_of acc.enforcement);
      if acc.check_failures <> [] then
        Alcotest.failf "%s on %s: %d checker violation(s), first: %s"
          entry.Scat.name target
          (List.length acc.check_failures)
          (head_of acc.check_failures))
    targets

(* --- determinism --------------------------------------------------------- *)

let test_determinism () =
  let entry = Scat.find "crash-mid-handoff" in
  let target = List.hd entry.Scat.targets in
  let run () =
    let acc =
      sample ~keep_journals:true ~seed:7L ~executions:40 entry.Scat.scenario
        target
    in
    List.rev acc.journals
  in
  let a = run () and b = run () in
  if a <> b then
    Alcotest.fail
      "same seed, different journals: scenario runs are not deterministic"

(* --- worker-count invariance --------------------------------------------- *)

let test_worker_invariance () =
  List.iter
    (fun (name, budget) ->
      let entry = Scat.find name in
      let target = List.hd entry.Scat.targets in
      let journals ~workers =
        let acc =
          sample ~keep_journals:true ~workers ~seed:11L ~executions:budget
            entry.Scat.scenario target
        in
        (acc, List.sort compare acc.journals)
      in
      let acc1, seq = journals ~workers:1 in
      let acc3, par = journals ~workers:3 in
      if acc3.wedges <> 0 || acc3.enforcement <> [] then
        Alcotest.failf "%s: parallel run not conformant (wedges %d)" name
          acc3.wedges;
      if acc3.check_failures <> [] then
        Alcotest.failf "%s: parallel checker violation: %s" name
          (head_of acc3.check_failures);
      if acc1.executions <> acc3.executions then
        Alcotest.failf "%s: %d sequential vs %d parallel executions" name
          acc1.executions acc3.executions;
      if seq <> par then
        Alcotest.failf
          "%s: journal multiset differs between 1 and 3 workers" name)
    [ ("crash-mid-handoff", 60); ("dup-storm", 60) ]

(* --- audit count ------------------------------------------------------- *)

(* Re-executing a found bug to collect its log repeats an execution the
   hunt has already audited; it must not reach the audit hook again. *)
let test_audit_once_per_execution () =
  let entry = Scat.find "dup-backend" in
  let target = Bug.find "ChaintableDuplicateBackendRequest" in
  let audits = ref 0 in
  let config =
    {
      E.default_config with
      seed = 1L;
      max_executions = 2_000;
      max_steps = target.Bug.max_steps;
      faults = Scenario.arm entry.Scat.scenario target.Bug.faults;
      clock = target.Bug.clock;
      scenario = Some entry.Scat.scenario;
      scenario_audit = Some (fun _ -> incr audits);
      collect_log_on_bug = true;
    }
  in
  match E.run ~monitors:target.Bug.monitors config target.Bug.harness with
  | E.No_bug _ -> Alcotest.fail "dup-backend hunt found no bug"
  | E.Bug_found (report, stats) ->
    Alcotest.(check bool) "log collected" true (report.Psharp.Error.log <> []);
    Alcotest.(check int) "one audit per execution" stats.E.executions !audits

let suite =
  Alcotest.test_case "catalog shape" `Quick test_catalog_shape
  :: Alcotest.test_case "journal determinism (fixed seed)" `Quick
       test_determinism
  :: Alcotest.test_case "worker-count invariance" `Quick
       test_worker_invariance
  :: Alcotest.test_case "audit once per execution with log collection"
       `Quick test_audit_once_per_execution
  :: List.map
       (fun e ->
         Alcotest.test_case
           (Printf.sprintf "conformance: %s x%d" e.Scat.name battery_budget)
           `Slow (test_conformance e))
       Scat.all
