type strategy_spec =
  | Random
  | Pct of { change_points : int }
  | Dfs of { max_depth : int; int_cap : int }
  | Round_robin
  | Delay_bounded of { delays : int }
  | Replay_trace of Trace.t
  | Fuzz of { corpus_cap : int }

type reduction = No_reduction | Hb_track | Sleep_sets

type config = {
  strategy : strategy_spec;
  seed : int64;
  max_executions : int;
  max_seconds : float option;
  max_steps : int;
  liveness_grace : int option;
  deadlock_is_bug : bool;
  collect_log_on_bug : bool;
  workers : int;
  collect_coverage : bool;
  coverage_plateau : int option;
  plateau_family : Coverage.family_kind option;
  faults : Fault.spec;
  reduce : reduction;
  clock : Clock.config option;
  start_iteration : int;
  prior_coverage : Coverage.t option;
  fuzz_initial : Fuzz_strategy.corpus_entry list;
  fuzz_exchange : Fuzz_strategy.Exchange.t option;
  fuzz_energy : bool;
  fuzz_mutate_faults : bool;
  scenario : Scenario.t option;
  scenario_audit : (Scenario.Obs.t -> unit) option;
}

let default_config =
  {
    strategy = Random;
    seed = 0L;
    max_executions = 10_000;
    max_seconds = None;
    max_steps = 5_000;
    liveness_grace = None;
    deadlock_is_bug = true;
    collect_log_on_bug = false;
    workers = 1;
    collect_coverage = false;
    coverage_plateau = None;
    plateau_family = None;
    faults = Fault.none;
    reduce = No_reduction;
    clock = None;
    start_iteration = 0;
    prior_coverage = None;
    fuzz_initial = [];
    fuzz_exchange = None;
    fuzz_energy = false;
    fuzz_mutate_faults = false;
    scenario = None;
    scenario_audit = None;
  }

type stats = {
  executions : int;
  elapsed : float;
  total_steps : int;
  search_exhausted : bool;
  coverage : Coverage.t option;
  plateaued : bool;
  timed_out : bool;
}

type outcome =
  | Bug_found of Error.report * stats
  | No_bug of stats

let factory_of config =
  match config.strategy with
  | Random -> Random_strategy.factory ~seed:config.seed
  | Pct { change_points } ->
    Pct_strategy.factory ~seed:config.seed ~change_points
      ~max_steps:config.max_steps ()
  | Dfs { max_depth; int_cap } -> Dfs_strategy.factory ~max_depth ~int_cap ()
  | Round_robin -> Rr_strategy.factory ()
  | Delay_bounded { delays } ->
    Delay_strategy.factory ~seed:config.seed ~delays
      ~max_steps:config.max_steps ()
  | Replay_trace t -> Replay_strategy.factory t
  | Fuzz { corpus_cap } ->
    Fuzz_strategy.factory ~seed:config.seed ~corpus_cap
      ~initial:config.fuzz_initial ?exchange:config.fuzz_exchange
      ~energy:config.fuzz_energy ~mutate_faults:config.fuzz_mutate_faults ()

(* [deadline] is the run's absolute wall-clock bound (started +
   max_seconds); the runtime checks it inside the step loop, so a single
   long execution cannot overshoot the budget (replay never gets one — a
   recorded schedule must always re-execute in full). *)
let runtime_config ?coverage ?hb ?deadline ?scenario config ~collect_log =
  {
    Runtime.max_steps = config.max_steps;
    liveness_grace = config.liveness_grace;
    deadlock_is_bug = config.deadlock_is_bug;
    collect_log;
    coverage;
    hb;
    faults = config.faults;
    deadline;
    clock = config.clock;
    scenario;
  }

(* --- Scenario constraining ---------------------------------------------- *)

(* Per-execution scenario observer: fresh mutable state (journal, trigger
   latches, pending draw markers) for each execution, created from the
   immutable compiled scenario. [Scenario.Obs.create] validates that
   [config.faults] arms what the clauses need — callers go through
   {!Scenario.arm} before building the config, so a raise here is a
   programming error at the call site, not a user input error. *)
let scenario_obs config =
  Option.map
    (fun s -> Scenario.Obs.create s ~faults:config.faults)
    config.scenario

(* DFS enumerates its own tree and replay retraces recorded choices;
   forcing their draws would change what those strategies mean (and for
   replay the forced draws are already in the trace). The observer is
   still installed — deliveries/crashes land in the journal so conformance
   can be checked on replayed traces — but the strategy is not wrapped. *)
let scenario_steers config (factory : Strategy.factory) =
  match (config.scenario, config.strategy) with
  | None, _ -> false
  | Some _, (Dfs _ | Replay_trace _) ->
    Printf.eprintf
      "[engine] strategy %s retraces its own choices; the scenario is \
       observed but does not steer\n\
       %!"
      factory.Strategy.factory_name;
    false
  | Some _, _ -> true

(* Invoked once per execution, after the runtime returns, with the
   execution's fully-populated observer (journal, wedge count, violation
   list). In parallel runs the callback fires on worker domains and must
   be thread-safe. *)
let audit_scenario config sobs =
  match (config.scenario_audit, sobs) with
  | Some f, Some o -> f o
  | _ -> ()

(* --- Happens-before reduction ------------------------------------------ *)

(* Per-execution instrumentation: a fresh happens-before recorder
   (threaded into the runtime config) and, under [Sleep_sets], the
   sleep-set wrapper around the base strategy. *)
let instrument config strategy =
  match config.reduce with
  | No_reduction -> (strategy, None)
  | Hb_track -> (strategy, Some (Hb.create ()))
  | Sleep_sets ->
    let hb = Hb.create () in
    (Sleep_strategy.wrap ~hb strategy, Some hb)

(* When coverage is being collected, file the execution's canonical
   partial-order fingerprint into its per-execution map (absorbed into
   the run accumulator by [observe] right after). *)
let note_hb hb exec_cov =
  match (hb, exec_cov) with
  | Some h, Some cov ->
    Coverage.note_hb cov ~fingerprint:(Hb.canonical_fingerprint h)
  | _ -> ()

(* DFS enumerates its own tree and replay retraces exact recorded
   choices; pruning their enabled sets would change what they mean. Keep
   the recorder (partial orders still land in coverage) but drop the
   pruning. *)
let normalize_reduction config (factory : Strategy.factory) =
  match (config.reduce, config.strategy) with
  | Sleep_sets, (Dfs _ | Replay_trace _) ->
    Printf.eprintf
      "[engine] strategy %s is incompatible with sleep-set pruning; \
       tracking happens-before without pruning\n\
       %!"
      factory.Strategy.factory_name;
    { config with reduce = Hb_track }
  | _ -> config

let no_monitors () = []

(* Re-execute one recorded schedule with logging on. Only the public
   [replay] audits: the log re-execution of a found bug repeats an
   execution the driver has already audited. *)
let replay_ ~audit ~monitors config trace body =
  let strategy =
    match (Replay_strategy.factory trace).fresh ~iteration:0 with
    | Some s -> s
    | None -> assert false
  in
  let sobs = scenario_obs config in
  let result =
    Runtime.execute
      (runtime_config ?scenario:sobs config ~collect_log:true)
      strategy ~monitors:(monitors ()) ~name:"Harness" body
  in
  if audit then audit_scenario config sobs;
  result

let replay ?(monitors = no_monitors) config trace body =
  replay_ ~audit:true ~monitors config trace body

let report_of_result kind (result : Runtime.exec_result) =
  {
    Error.kind;
    step = result.Runtime.bug_step;
    trace = result.Runtime.choices;
    log = result.Runtime.log;
  }

(* --- Coverage observation ---------------------------------------------- *)

(* State shared by the workers of one run: the coverage accumulator
   (seeded with prior coverage), the plateau counter, and survey's table
   of distinct bug kinds (first report, count, iteration of the first
   report). [mu] guards [acc] when several workers merge into it and
   [kinds] always. *)
type shared = {
  acc : Coverage.t option;
  mu : Mutex.t;
  no_gain : int Atomic.t;  (* consecutive executions with no new point *)
  kinds : (string, Error.report * int * int) Hashtbl.t;
}

(* One worker's observation state. With one worker [map] is the run
   accumulator itself: every execution is absorbed once, its novelty
   feeds the plateau counter and the strategy, exactly as a sequential
   loop would. With several workers [map] is a worker-cumulative view
   that only answers feedback novelty (fuzz), and [delta] collects the
   executions that [flush] merges into the shared accumulator at batch
   boundaries, so the per-execution path takes no lock. [absorb] is
   commutative, so the merged map equals the one-worker map at the same
   budget. *)
type worker = {
  factory : Strategy.factory;
  map : Coverage.t option;
  mutable delta : Coverage.t option;
  mutable pending : int;  (* executions folded into [delta] *)
}

let new_worker shared ~workers (factory : Strategy.factory) =
  let fresh () = Some (Coverage.create ()) in
  match shared.acc with
  | None -> { factory; map = None; delta = None; pending = 0 }
  | Some _ as acc when workers = 1 -> { factory; map = acc; delta = None; pending = 0 }
  | Some _ ->
    let map = if factory.Strategy.feedback <> None then fresh () else None in
    { factory; map; delta = fresh (); pending = 0 }

(* An absorb with this novelty covered [n] executions. Did it count as
   plateau gain? Unkeyed, any core-family novelty does (schedule and hb
   fingerprints never count — see coverage.mli). Keyed on a family, only
   that family's novelty resets the counter, so e.g. [--plateau-family hb]
   stops a long fuzz campaign once it stops finding new partial orders
   even while coarser families still trickle in. Under several workers the
   counter is sampled at merge epochs: coarser than one worker's
   per-execution count, with the same meaning. *)
let count_gain config shared novelty n =
  let gain =
    match config.plateau_family with
    | None -> Coverage.novel_core novelty
    | Some fam -> Coverage.novel_in novelty fam
  in
  if gain then Atomic.set shared.no_gain 0
  else ignore (Atomic.fetch_and_add shared.no_gain n)

let observe config shared w (result : Runtime.exec_result) exec =
  Coverage.note_execution exec
    ~fingerprint:(Coverage.fingerprint result.Runtime.choices);
  (match w.delta with
   | Some d ->
     ignore (Coverage.absorb ~into:d exec);
     w.pending <- w.pending + 1
   | None -> ());
  match w.map with
  | None -> ()
  | Some m ->
    let novelty = Coverage.absorb_tagged ~into:m exec in
    if Option.is_none w.delta then count_gain config shared novelty 1;
    (match w.factory.Strategy.feedback with
     | Some f -> f ~trace:result.Runtime.choices ~novelty
     | None -> ())

(* Batch-boundary merge: the only place a worker's coverage meets the
   shared accumulator (Worker_pool invokes it between batches and at
   exit). *)
let flush config shared w =
  match (shared.acc, w.delta) with
  | Some acc, Some delta when w.pending > 0 ->
    let pending = w.pending in
    w.delta <- Some (Coverage.create ());
    w.pending <- 0;
    let novelty =
      Mutex.protect shared.mu (fun () -> Coverage.absorb_tagged ~into:acc delta)
    in
    count_gain config shared novelty pending
  | _ -> ()

(* Keep each kind's report from the lowest global iteration, so the
   survey is the same at every worker count. *)
let note_kind shared ~iteration kind result =
  let key = Error.kind_to_string kind in
  Mutex.protect shared.mu (fun () ->
      Hashtbl.replace shared.kinds key
        (match Hashtbl.find_opt shared.kinds key with
         | Some (report, n, first) when first < iteration -> (report, n + 1, first)
         | Some (_, n, _) -> (report_of_result kind result, n + 1, iteration)
         | None -> (report_of_result kind result, 1, iteration)))

(* --- The driver -------------------------------------------------------- *)

(* What a bug does to the run: [run] stops at the first, [explore] runs
   on regardless, [survey] runs on and tallies bugs by kind. *)
type stop_policy = First_bug | Never | Dedup_by_kind

(* Why a run ended before its budget. The pool keeps the stop at the
   lowest global iteration, so the stop does not depend on the worker
   count. *)
type stop =
  | Bug of Error.kind * Runtime.exec_result
  | Timed_out
  | Plateaued
  | Exhausted

(* Parallel mode needs a parallel-safe strategy (a stateless factory each
   worker can instantiate privately); otherwise fall back with a notice. *)
let parallel_plan config (factory : Strategy.factory) =
  let workers = Worker_pool.resolve config.workers in
  if workers <= 1 || config.max_executions <= 1 then 1
  else if config.reduce <> No_reduction then begin
    (* the recorder and sleep sets are per-execution, but the reduction's
       value lies in the sequentially-shared coverage of partial orders;
       like DFS, fall back with a notice *)
    Printf.eprintf
      "[engine] happens-before reduction is sequential-only; ignoring \
       workers=%d and exploring sequentially\n\
       %!"
      workers;
    1
  end
  else if factory.Strategy.parallel_safe then workers
  else begin
    Printf.eprintf
      "[engine] strategy %s keeps state across executions; ignoring \
       workers=%d and exploring sequentially\n\
       %!"
      factory.Strategy.factory_name workers;
    1
  end

(* The one execution loop behind [run], [explore] and [survey]. Each
   worker owns a private factory and runs the global iterations the pool
   hands it; seeds derive from the global iteration, so the schedule set
   is the same at every worker count. One worker runs inline, without a
   domain. *)
let drive ~policy ~monitors config body =
  let factory = factory_of config in
  let config = normalize_reduction config factory in
  let steer = scenario_steers config factory in
  let workers = parallel_plan config factory in
  (* Coverage is collected when explicitly requested, when a plateau bound
     needs it, when the strategy wants feedback (fuzz), or when a campaign
     resume carries prior coverage (which seeds the accumulator so novelty
     and the plateau are judged relative to history). *)
  let acc =
    if
      config.collect_coverage || config.coverage_plateau <> None
      || config.prior_coverage <> None || factory.Strategy.feedback <> None
    then begin
      let acc = Coverage.create () in
      Option.iter (fun prior -> ignore (Coverage.absorb ~into:acc prior))
        config.prior_coverage;
      Some acc
    end
    else None
  in
  let shared =
    { acc; mu = Mutex.create (); no_gain = Atomic.make 0; kinds = Hashtbl.create 8 }
  in
  let started = Unix.gettimeofday () in
  let deadline = Option.map (fun b -> started +. b) config.max_seconds in
  let plateau = Option.value config.coverage_plateau ~default:max_int in
  let execute w ~iteration =
    match w.factory.Strategy.fresh ~iteration:(config.start_iteration + iteration) with
    | None -> (Some Exhausted, 0)
    | Some strategy ->
      let strategy, hb = instrument config strategy in
      let sobs = scenario_obs config in
      let strategy =
        match sobs with
        | Some o when steer -> Scenario.wrap ~obs:o strategy
        | _ -> strategy
      in
      let exec_cov = Option.map (fun _ -> Coverage.create ()) shared.acc in
      let result =
        Runtime.execute
          (runtime_config ?coverage:exec_cov ?hb ?deadline ?scenario:sobs
             config ~collect_log:false)
          strategy ~monitors:(monitors ()) ~name:"Harness" body
      in
      note_hb hb exec_cov;
      Option.iter (observe config shared w result) exec_cov;
      audit_scenario config sobs;
      let stop =
        match result.Runtime.bug with
        | Some kind when policy = First_bug -> Some (Bug (kind, result))
        | bug ->
          if policy = Dedup_by_kind then
            Option.iter (fun kind -> note_kind shared ~iteration kind result) bug;
          if result.Runtime.timed_out then Some Timed_out
          else if Atomic.get shared.no_gain >= plateau then Some Plateaued
          else None
      in
      (stop, result.Runtime.steps)
  in
  let winner, pool =
    Worker_pool.hunt ~workers ~max_iterations:config.max_executions
      ?max_seconds:config.max_seconds
      ~init:(fun ~worker ->
        new_worker shared ~workers
          (if worker = 0 then factory else factory_of config))
      ~on_batch:(flush config shared) ~body:execute ()
  in
  let stop = Option.map fst winner in
  let is s = stop = Some s in
  let stats =
    {
      (* an exhausted strategy ran no execution for its iteration *)
      executions = pool.Worker_pool.executions - (if is Exhausted then 1 else 0);
      elapsed = Unix.gettimeofday () -. started;
      total_steps = pool.Worker_pool.total_steps;
      search_exhausted = is Exhausted;
      coverage = shared.acc;
      plateaued = is Plateaued;
      timed_out = pool.Worker_pool.timed_out || is Timed_out;
    }
  in
  (stop, stats, shared.kinds)

let run ?(monitors = no_monitors) config body =
  match drive ~policy:First_bug ~monitors config body with
  | Some (Bug (kind, result)), stats, _ ->
    (* optionally re-execute the schedule with logging on, for a readable
       trace log *)
    let report = report_of_result kind result in
    let log =
      if config.collect_log_on_bug then
        (replay_ ~audit:false ~monitors config report.trace body).Runtime.log
      else report.log
    in
    Bug_found ({ report with log }, stats)
  | _, stats, _ -> No_bug stats

let explore ?(monitors = no_monitors) config body =
  let _, stats, _ =
    drive ~policy:Never ~monitors { config with collect_coverage = true } body
  in
  stats

let survey ?(monitors = no_monitors) config body =
  let _, _, kinds = drive ~policy:Dedup_by_kind ~monitors config body in
  Hashtbl.fold (fun _ entry acc -> entry :: acc) kinds []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
  |> List.map (fun (report, n, _) -> (report, n))

let ndc = function
  | Bug_found (report, _) -> Some (Trace.length report.Error.trace)
  | No_bug _ -> None

let pp_stats_extra fmt stats =
  (match stats.coverage with
   | Some cov -> Format.fprintf fmt ", %a" Coverage.pp_totals cov
   | None -> ());
  if stats.plateaued then
    Format.fprintf fmt ", stopped on coverage plateau";
  if stats.timed_out then
    Format.fprintf fmt ", stopped at the time budget"

let pp_outcome fmt = function
  | Bug_found (report, stats) ->
    Format.fprintf fmt
      "@[<v>BUG FOUND after %d execution(s), %d total step(s), %.2fs%a:@,%a@]"
      stats.executions stats.total_steps stats.elapsed pp_stats_extra stats
      Error.pp_report report
  | No_bug stats ->
    Format.fprintf fmt "no bug found in %d execution(s) (%d total step(s), %.2fs%s%a)"
      stats.executions stats.total_steps stats.elapsed
      (if stats.search_exhausted then ", search space exhausted" else "")
      pp_stats_extra stats
