(* The benchmark program. One process runs one workload ([hunt], [explore]
   or [fuzz]) with one worker, from a workload seed, and prints one JSON
   object as its last line. The runner (run.py) spawns it and turns that
   object into the benchmark's metrics.

   Modes:
   - [setup]   build the workload's plan and stop before its first
               execution (the runner times whole spawns of this mode);
   - [prepare] write the inputs a workload loads at set-up (the campaigns
               the fuzz workload resumes);
   - [run]     the untraced workload: rounds of identical, seed-determined
               work until [--seconds] have passed;
   - [trace]   two untraced rounds, then the same round re-driven through
               [Runtime.execute] with bench-side timers and counters
               around every layer call, checked against the untraced one.

   The library is used only through its public entry points and is never
   modified; every layer is timed from outside, around the calls the
   benchmark makes into it. *)

module E = Psharp.Engine
module R = Psharp.Runtime
module T = Psharp.Trace
module Cov = Psharp.Coverage
module B = Catalog.Bug_catalog
module SC = Catalog.Scenario_catalog

(* ------------------------------------------------------------------ *)
(* Small utilities                                                     *)
(* ------------------------------------------------------------------ *)

let now () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

type json =
  | I of int
  | F of float
  | S of string
  | Bool of bool
  | L of json list
  | O of (string * json) list

let rec emit b = function
  | I n -> Buffer.add_string b (string_of_int n)
  | F f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  | S s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | L xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit b x)
      xs;
    Buffer.add_char b ']'
  | O kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        emit b (S k);
        Buffer.add_char b ':';
        emit b v)
      kvs;
    Buffer.add_char b '}'

let to_json j =
  let b = Buffer.create 4096 in
  emit b j;
  Buffer.contents b

let gmean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0. xs
      /. float_of_int (List.length xs))

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let n = List.length s in
    let k = int_of_float (Float.ceil (p *. float_of_int n)) in
    List.nth s (max 0 (min (n - 1) (k - 1)))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Seeds                                                               *)
(* ------------------------------------------------------------------ *)

(* Random, Pct, Delay_bounded and the fuzzer's executions seed execution
   [i] with [seed + 2i + 1], so seed [s + 2] replays seed [s] shifted by
   one execution. Every run of a workload therefore gets its own seed,
   [stride] apart, from a base hashed out of the workload seed; [check]
   asserts that no two runs' per-execution seed ranges overlap within
   their budgets. *)
let stride = 1 lsl 24

let splitmix64 x =
  let open Int64 in
  let z = add x 0x9e3779b97f4a7c15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let seed_base ws =
  Int64.logand (splitmix64 (Int64.of_int ws)) 0x0000_3fff_ffff_ffffL

(* Per-execution seed ranges [seed + 1, seed + 2 * budget - 1]. *)
let check_spacing runs =
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) runs in
  let rec go = function
    | (s1, b1, l1) :: ((s2, _, l2) :: _ as rest) ->
      if Int64.compare (Int64.add s1 (Int64.of_int ((2 * b1) - 1))) s2 >= 0
      then
        failwith
          (Printf.sprintf "seed ranges of %s and %s overlap" l1 l2)
      else go rest
    | _ -> ()
  in
  List.iter
    (fun (_, b, l) ->
      if 2 * b >= stride then
        failwith (Printf.sprintf "budget of %s exceeds the seed stride" l))
    runs;
  go sorted

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

type strat = Rnd | Pct2 | Fuzz2

let strat_name = function Rnd -> "random" | Pct2 -> "pct2" | Fuzz2 -> "fuzz2"

type job = {
  label : string;
  entry : B.entry;
  group : string;
  strat : strat;
  seed : int64;
  budget : int;
  fixed : bool;  (* run the bug-free variant *)
  scenario : Psharp.Scenario.t option;
}

(* Harness groups are the catalog's case studies: Paxos and Raft share
   one, as they would otherwise be groups of a millisecond per round. *)
let group_of (e : B.entry) =
  match e.B.case_study with
  | B.Cs_vnext -> "vnext"
  | B.Cs_migrating_table -> "chaintable"
  | B.Cs_fabric -> "fabric"
  | B.Cs_example -> "replication"
  | B.Cs_shardkv -> "shardkv"
  | B.Cs_sample -> "paxos+raft"

(* Catalog (entry, strategy) pairs that cannot finish a hunt cleanly.
   Random does not reach QueryStreamedBackUpNewStream within 20,000
   executions, and PCT with 2 change points reaches neither Raft bug.
   PCT's unfair priorities starve clients, so on FabricPromoteDuringCopy
   and ExampleDuplicateReplicaAck it reports a liveness violation on 10
   and 6 of 60 seeds instead of the safety bug. The buggy CScale
   pipeline can deadlock before its null reference: under Random on 7 of
   60 seeds, under PCT once in about 1,100 hunts. *)
let skipped =
  [
    ("QueryStreamedBackUpNewStream", Rnd);
    ("RaftDoubleVote", Pct2);
    ("RaftStaleLeaderElection", Pct2);
    ("FabricPromoteDuringCopy", Pct2);
    ("ExampleDuplicateReplicaAck", Pct2);
    ("CScaleNullReference", Rnd);
    ("CScaleNullReference", Pct2);
  ]

(* The shardkv bugs are not hunted under any strategy. Under their crash
   and delay faults a buggy harness can block a node before the oracle
   sees the violation, so the hunt ends in a deadlock:
   ShardkvCrashLosesShard on 5 of about 1,000 Random and PCT hunts and
   on 2 of 432 fuzz hunts (which missed it within budget on 9 more), and
   ShardkvStaleRingServe on 1 of about 530 PCT hunts. The bug-free
   harness did not deadlock in 60,000 executions under the same faults.
   ShardkvMigrationDoubleApply shares that harness and those faults. All
   three still run in the fuzz workload's explores and campaigns and
   under the hunt workload's scenarios, none of which is judged on the
   kind of bug. *)
let hunted (e : B.entry) strat =
  e.B.case_study <> B.Cs_shardkv && not (List.mem (e.B.name, strat) skipped)

(* A hunt stops at its first bug, so the budget only bounds the tail.
   PCT needs about 2,700 executions on average for QueryStreamedBackUp-
   NewStream, roughly exponentially distributed (at most 15,536 in 351
   hunts), and missed it within 20,000 on 1 of about 600 hunts; at
   100,000 a miss has odds of about e^-36. Every other pair's longest
   hunt in 351 took at most 4,534 executions. *)
let hunt_budget = 100_000
let hunt_subseeds = 3

(* A scenario constrains the search without promising its target's bug
   (most crash scenarios never reach ExtentNodeCrashLosesBinding), so
   each runs a fixed budget that stops early only at a bug. *)
let scenario_budget = 30

let explore_harnesses =
  (* representative entry, executions per round *)
  [
    ("ExtentNodeLivenessViolation", 360);
    ("QueryAtomicFilterShadowing", 6_000);
    ("FabricPromoteDuringCopy", 4_500);
    ("ShardkvMigrationDoubleApply", 600);
  ]

let fuzz_entries =
  List.filter
    (fun (e : B.entry) -> Psharp.Fault.enabled e.B.faults)
    B.all

let fuzz_explore_budget = 250
let fuzz_hunt_budget = 5_000
let fuzz_subseeds = 2
let campaign_prepare_budget = 60
let campaign_resume_budget = 60

type plan = {
  workload : string;
  wseed : int;
  hunts : job list;  (* to the first bug *)
  scenarios : job list;  (* fixed budget under a scenario, may find a bug *)
  explores : job list;  (* fixed budget, never stop early *)
  campaigns : job list;  (* prepared, then resumed *)
}

let make_plan workload wseed =
  let base = seed_base wseed in
  let next = ref 0 in
  let job ?scenario ?(fixed = false) ~budget ~strat ~label entry =
    let seed = Int64.add base (Int64.of_int (!next * stride)) in
    incr next;
    {
      label;
      entry;
      group = group_of entry;
      strat;
      seed;
      budget;
      fixed;
      scenario;
    }
  in
  let p =
    {
      workload;
      wseed;
      hunts = [];
      scenarios = [];
      explores = [];
      campaigns = [];
    }
  in
  match workload with
  | "hunt" ->
    let catalog =
      List.concat_map
        (fun sub ->
          List.concat_map
            (fun (e : B.entry) ->
              List.filter_map
                (fun strat ->
                  if not (hunted e strat) then None
                  else
                    Some
                      (job ~budget:hunt_budget ~strat
                         ~label:
                           (Printf.sprintf "%s/%s/%d" e.B.name
                              (strat_name strat) sub)
                         e))
                [ Rnd; Pct2 ])
            B.all)
        (List.init hunt_subseeds Fun.id)
    in
    let scenarios =
      List.map
        (fun (sc : SC.entry) ->
          let e = B.find (List.hd sc.SC.targets) in
          job ~scenario:sc.SC.scenario ~budget:scenario_budget ~strat:Rnd
            ~label:(Printf.sprintf "%s@%s" sc.SC.name e.B.name)
            e)
        SC.all
    in
    { p with hunts = catalog; scenarios }
  | "explore" ->
    {
      p with
      explores =
        List.map
          (fun (name, budget) ->
            let e = B.find name in
            job ~fixed:true ~budget ~strat:Rnd
              ~label:(group_of e ^ "/fixed") e)
          explore_harnesses;
    }
  | "fuzz" ->
    let explores =
      List.map
        (fun e ->
          job ~budget:fuzz_explore_budget ~strat:Fuzz2
            ~label:(e.B.name ^ "/explore") e)
        fuzz_entries
    in
    let hunts =
      List.concat_map
        (fun sub ->
          List.filter_map
            (fun (e : B.entry) ->
              if not (hunted e Fuzz2) then None
              else
                Some
                  (job ~budget:fuzz_hunt_budget ~strat:Fuzz2
                     ~label:(Printf.sprintf "%s/hunt/%d" e.B.name sub)
                     e))
            fuzz_entries)
        (List.init fuzz_subseeds Fun.id)
    in
    let campaigns =
      List.map
        (fun e ->
          job
            ~budget:(campaign_prepare_budget + campaign_resume_budget)
            ~strat:Fuzz2 ~label:(e.B.name ^ "/campaign") e)
        fuzz_entries
    in
    { p with hunts; explores; campaigns }
  | w -> failwith ("unknown workload " ^ w)

let all_jobs p = p.hunts @ p.scenarios @ p.explores @ p.campaigns

let config_of ?audit (j : job) =
  let e = j.entry in
  let faults =
    if j.fixed then Psharp.Fault.none
    else
      match j.scenario with
      | Some s -> Psharp.Scenario.arm s e.B.faults
      | None -> e.B.faults
  in
  let fuzz = j.strat = Fuzz2 in
  {
    E.default_config with
    strategy =
      (match j.strat with
       | Rnd -> E.Random
       | Pct2 -> E.Pct { change_points = 2 }
       | Fuzz2 -> E.Fuzz { corpus_cap = 32 });
    seed = j.seed;
    max_executions = j.budget;
    max_steps = e.B.max_steps;
    faults;
    clock = e.B.clock;
    scenario = j.scenario;
    scenario_audit = (if j.scenario = None then None else audit);
    reduce = (if fuzz then E.Hb_track else E.No_reduction);
    fuzz_energy = fuzz;
    fuzz_mutate_faults = fuzz;
  }

let body_of (j : job) =
  if j.fixed then j.entry.B.fixed_harness else j.entry.B.harness

(* The violation class a catalog entry's hunt must report: a liveness
   bug surfaces as a hot monitor at the bound or as a deadlock, a safety
   bug as anything that fails at a point in time. *)
let kind_ok (e : B.entry) (k : Psharp.Error.kind) =
  match (e.B.kind, k) with
  | `Liveness, (Psharp.Error.Liveness_violation _ | Psharp.Error.Deadlock _) ->
    true
  | ( `Safety,
      ( Psharp.Error.Safety_violation _ | Psharp.Error.Assertion_failure _
      | Psharp.Error.Machine_exception _ | Psharp.Error.Unhandled_event _ ) )
    ->
    true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-round accounting                                                *)
(* ------------------------------------------------------------------ *)

type tput = {
  mutable t_execs : int;
  mutable t_steps : int;
  mutable t_ns : int;
  mutable t_ref_ns : float;  (* [t_ns] at the probe's reference speed *)
}

(* Speed probe. On the shared machine this benchmark was tuned on, the
   CPU speed one process gets drifts by up to a third over seconds, and
   all work slows together. A fixed piece of allocating OCaml work (hash
   table churn, then random updates of a 2 MB off-heap array) runs
   between windows of about [window_ns] of measured work, and each
   window's time is rescaled to the speed at which the probe takes
   [probe_ref_ns]. Over 40 s of alternating probes and chaintable or
   vnext executions, the executions' half-second medians spread 10-30%
   (IQR / median) and 5-6% once divided by the probe's. The probe calls
   no library code, so a library change cannot move it, and its array
   lives outside the OCaml heap, so it does not count in [heap_peak_mb]. *)
(* created at the first probe, so that it is not part of set-up *)
let probe_array =
  lazy
    (let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 262_144 in
     Bigarray.Array1.fill a 1;
     a)

let probe () =
  let probe_array = Lazy.force probe_array in
  let t0 = now () in
  let small = Hashtbl.create 256 and big = Hashtbl.create 4096 in
  let acc = ref 0 and x = ref 12345 in
  for i = 0 to 8_191 do
    Hashtbl.replace small (i land 255) (string_of_int i);
    acc := !acc + String.length (Hashtbl.find small (i land 127))
  done;
  for i = 0 to 4_095 do
    x := ((!x * 1103515245) + 12345) land 0x3fff_ffff;
    let k = !x land 262_143 in
    let v = probe_array.{k} in
    probe_array.{k} <- v + 1;
    Hashtbl.replace big (!x land 4095) (string_of_int i, [ v; i; k ]);
    acc := !acc + List.length (snd (Hashtbl.find big (!x land 4095)))
  done;
  ignore (Sys.opaque_identity !acc);
  now () - t0

let probe_ref_ns = 4_000_000
let window_ns = 100_000_000

type round = {
  tput : (string, tput) Hashtbl.t;  (* per harness group *)
  mutable hunt_ns : int;
  mutable triage_ns : int;
  mutable hunt_execs : int list;
  mutable hunts : int;
  mutable misses : int;
  mutable witness_lens : int list;
  mutable orig_lens : int list;
  mutable cov_points : int;
  mutable partial_orders : int;
  mutable checks : int;
  mutable failures : string list;
  mutable signature : string list;
  (* layer counters that cost nothing to keep in every round *)
  mutable shrink_ns : int;
  mutable shrink_reexecs : int;
  mutable shrink_skipped : int;
  mutable replay_ns : int;
  mutable replay_choices : int;
  mutable replay_log_lines : int;
  mutable scen_execs : int;
  mutable scen_wedged : int;
  mutable camp_save_ns : int;
  mutable camp_load_ns : int;
  mutable camp_bytes : int;
  mutable camp_saves : int;
  mutable camp_corpus : int;
  traced : bool;
  mutable witnesses : T.t list;  (* kept by traced rounds only *)
  mutable heap_words : int;  (* Gc top_heap_words when the round ended *)
  mutable window : (tput * int) list;  (* work since the last probe *)
  mutable window_ns : int;
  mutable last_probe_ns : int;
  mutable probes : int list;
}

let new_round ~traced =
  {
    traced;
    tput = Hashtbl.create 8;
    hunt_ns = 0;
    triage_ns = 0;
    hunt_execs = [];
    hunts = 0;
    misses = 0;
    witness_lens = [];
    orig_lens = [];
    cov_points = 0;
    partial_orders = 0;
    checks = 0;
    failures = [];
    signature = [];
    shrink_ns = 0;
    shrink_reexecs = 0;
    shrink_skipped = 0;
    replay_ns = 0;
    replay_choices = 0;
    replay_log_lines = 0;
    scen_execs = 0;
    scen_wedged = 0;
    camp_save_ns = 0;
    camp_load_ns = 0;
    camp_bytes = 0;
    camp_saves = 0;
    camp_corpus = 0;
    witnesses = [];
    heap_words = 0;
    window = [];
    window_ns = 0;
    last_probe_ns = probe ();
    probes = [];
  }

let tput_of rd g =
  match Hashtbl.find_opt rd.tput g with
  | Some t -> t
  | None ->
    let t = { t_execs = 0; t_steps = 0; t_ns = 0; t_ref_ns = 0. } in
    Hashtbl.replace rd.tput g t;
    t

(* Probe, and rescale the window's work by the mean of the probes on
   either side of it. *)
let close_window rd =
  let p = probe () in
  let scale =
    float_of_int probe_ref_ns /. (float_of_int (rd.last_probe_ns + p) /. 2.)
  in
  List.iter
    (fun (t, ns) -> t.t_ref_ns <- t.t_ref_ns +. (float_of_int ns *. scale))
    rd.window;
  rd.window <- [];
  rd.window_ns <- 0;
  rd.last_probe_ns <- p;
  rd.probes <- p :: rd.probes

let account rd g ~execs ~steps ~ns =
  let t = tput_of rd g in
  t.t_execs <- t.t_execs + execs;
  t.t_steps <- t.t_steps + steps;
  t.t_ns <- t.t_ns + ns;
  rd.window <- (t, ns) :: rd.window;
  rd.window_ns <- rd.window_ns + ns;
  if rd.window_ns >= window_ns then close_window rd

let fail rd msg = rd.failures <- msg :: rd.failures
let check rd ok msg =
  rd.checks <- rd.checks + 1;
  if not ok then fail rd msg

(* Every work item files one line of its counts (executions, steps,
   digests, witness lengths) into the round's signature; repeated rounds
   and the traced run must produce the same signature. *)
let sign rd fmt =
  Printf.ksprintf (fun s -> rd.signature <- s :: rd.signature) fmt

(* ------------------------------------------------------------------ *)
(* Traced execution: Runtime.execute with bench-side timers            *)
(* ------------------------------------------------------------------ *)

type layer = {
  mutable l_execs : int;
  mutable l_steps : int;
  mutable l_exec_ns : int;
  mutable l_strat_ns : int;
  mutable l_decisions : int;
  mutable l_minor : float;
  mutable l_promoted : float;
  mutable l_majors : int;
  mutable l_faults : int;
  mutable l_vtime : int;
}

type sample = {
  s_job : job;
  s_trace : T.t;
  s_steps : int;
}

type tstate = {
  layers : (string, layer) Hashtbl.t;
  mutable fresh_ns : int;
  mutable note_ns : int;
  mutable hbfp_ns : int;
  mutable absorb_ns : int;
  mutable feedback_ns : int;
  mutable cov_execs : int;
  mutable novel : int;
  mutable admitted : int;
  mutable samples : sample list;
  quota : (string, int) Hashtbl.t;  (* sampled steps per entry *)
}

let new_tstate () =
  {
    layers = Hashtbl.create 8;
    fresh_ns = 0;
    note_ns = 0;
    hbfp_ns = 0;
    absorb_ns = 0;
    feedback_ns = 0;
    cov_execs = 0;
    novel = 0;
    admitted = 0;
    samples = [];
    quota = Hashtbl.create 16;
  }

let layer_of ts g =
  match Hashtbl.find_opt ts.layers g with
  | Some l -> l
  | None ->
    let l =
      {
        l_execs = 0;
        l_steps = 0;
        l_exec_ns = 0;
        l_strat_ns = 0;
        l_decisions = 0;
        l_minor = 0.;
        l_promoted = 0.;
        l_majors = 0;
        l_faults = 0;
        l_vtime = 0;
      }
    in
    Hashtbl.replace ts.layers g l;
    l

(* Self time of the strategy: each decision is bracketed by two clock
   reads, charged to the strategy span. *)
let wrap_strategy l (s : Psharp.Strategy.t) : Psharp.Strategy.t =
  {
    s with
    next_schedule =
      (fun ~enabled ~n ~step ->
        let t0 = now () in
        let r = s.Psharp.Strategy.next_schedule ~enabled ~n ~step in
        l.l_strat_ns <- l.l_strat_ns + (now () - t0);
        l.l_decisions <- l.l_decisions + 1;
        r);
    next_bool =
      (fun ~step ->
        let t0 = now () in
        let r = s.Psharp.Strategy.next_bool ~step in
        l.l_strat_ns <- l.l_strat_ns + (now () - t0);
        l.l_decisions <- l.l_decisions + 1;
        r);
    next_int =
      (fun ~bound ~step ->
        let t0 = now () in
        let r = s.Psharp.Strategy.next_int ~bound ~step in
        l.l_strat_ns <- l.l_strat_ns + (now () - t0);
        l.l_decisions <- l.l_decisions + 1;
        r);
  }

let rt_config ?coverage ?hb ?scenario (cfg : E.config) =
  {
    R.max_steps = cfg.E.max_steps;
    liveness_grace = cfg.E.liveness_grace;
    deadlock_is_bug = cfg.E.deadlock_is_bug;
    collect_log = false;
    coverage;
    hb;
    faults = cfg.E.faults;
    deadline = None;
    clock = cfg.E.clock;
    scenario;
  }

let factory_of (cfg : E.config) =
  match cfg.E.strategy with
  | E.Random -> Psharp.Random_strategy.factory ~seed:cfg.E.seed
  | E.Pct { change_points } ->
    Psharp.Pct_strategy.factory ~seed:cfg.E.seed ~change_points
      ~max_steps:cfg.E.max_steps ()
  | E.Fuzz { corpus_cap } ->
    Psharp.Fuzz_strategy.factory ~seed:cfg.E.seed ~corpus_cap
      ~initial:cfg.E.fuzz_initial ?exchange:cfg.E.fuzz_exchange
      ~energy:cfg.E.fuzz_energy ~mutate_faults:cfg.E.fuzz_mutate_faults ()
  | _ -> invalid_arg "factory_of"

let sample_quota = 60_000

(* The engine's sequential loop, re-driven from outside: fresh strategy,
   optional happens-before recorder and scenario wrapper, one
   [Runtime.execute], then (with coverage) hb fingerprint, schedule
   fingerprint, absorb and fuzz feedback — the order [Engine] uses, so
   the same schedules come out. Returns executions, steps, the first
   bug (when [stop_at_bug]) and the run's coverage accumulator. *)
let traced_loop ts (j : job) (cfg : E.config) body ~stop_at_bug ~coverage =
  let e = j.entry in
  let l = layer_of ts j.group in
  let factory = factory_of cfg in
  let acc = if coverage then Some (Cov.create ()) else None in
  let hb_on = cfg.E.reduce = E.Hb_track in
  let steps = ref 0 in
  let rec go i =
    if i >= cfg.E.max_executions then (i, None)
    else begin
      let t0 = now () in
      let fresh =
        factory.Psharp.Strategy.fresh ~iteration:(cfg.E.start_iteration + i)
      in
      ts.fresh_ns <- ts.fresh_ns + (now () - t0);
      match fresh with
      | None -> (i, None)
      | Some s ->
        let s = wrap_strategy l s in
        let hb = if hb_on then Some (Psharp.Hb.create ()) else None in
        let sobs =
          Option.map
            (fun sc -> Psharp.Scenario.Obs.create sc ~faults:cfg.E.faults)
            cfg.E.scenario
        in
        let s =
          match sobs with
          | Some o -> Psharp.Scenario.wrap ~obs:o s
          | None -> s
        in
        let exec_cov = Option.map (fun _ -> Cov.create ()) acc in
        let monitors = e.B.monitors () in
        let g0 = Gc.quick_stat () in
        let m0 = Gc.minor_words () in
        let t0 = now () in
        let r =
          R.execute
            (rt_config ?coverage:exec_cov ?hb ?scenario:sobs cfg)
            s ~monitors ~name:"Harness" body
        in
        let t1 = now () in
        let m1 = Gc.minor_words () in
        let g1 = Gc.quick_stat () in
        l.l_exec_ns <- l.l_exec_ns + (t1 - t0);
        l.l_minor <- l.l_minor +. (m1 -. m0);
        l.l_promoted <-
          l.l_promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
        l.l_majors <-
          l.l_majors + (g1.Gc.major_collections - g0.Gc.major_collections);
        l.l_execs <- l.l_execs + 1;
        l.l_steps <- l.l_steps + r.R.steps;
        l.l_faults <- l.l_faults + r.R.faults_injected;
        l.l_vtime <- l.l_vtime + r.R.final_time;
        steps := !steps + r.R.steps;
        (match (acc, exec_cov) with
         | Some a, Some ec ->
           (match hb with
            | Some h ->
              let t0 = now () in
              Cov.note_hb ec ~fingerprint:(Psharp.Hb.canonical_fingerprint h);
              ts.hbfp_ns <- ts.hbfp_ns + (now () - t0)
            | None -> ());
           let t0 = now () in
           Cov.note_execution ec ~fingerprint:(Cov.fingerprint r.R.choices);
           let t1 = now () in
           let nov = Cov.absorb_tagged ~into:a ec in
           let t2 = now () in
           ts.note_ns <- ts.note_ns + (t1 - t0);
           ts.absorb_ns <- ts.absorb_ns + (t2 - t1);
           ts.cov_execs <- ts.cov_execs + 1;
           if Cov.novel_core nov then ts.novel <- ts.novel + 1;
           (match factory.Psharp.Strategy.feedback with
            | Some f ->
              if
                T.length r.R.choices > 0
                && (Cov.novel_core nov
                   || (cfg.E.fuzz_energy && nov.Cov.new_hb > 0))
              then ts.admitted <- ts.admitted + 1;
              let t0 = now () in
              f ~trace:r.R.choices ~novelty:nov;
              ts.feedback_ns <- ts.feedback_ns + (now () - t0)
            | None -> ())
         | _ -> ());
        (match (cfg.E.scenario_audit, sobs) with
         | Some f, Some o -> f o
         | _ -> ());
        (* schedules kept for the on/off deltas: bug-free, unconstrained *)
        let used =
          Option.value ~default:0 (Hashtbl.find_opt ts.quota e.B.name)
        in
        if r.R.bug = None && cfg.E.scenario = None && used < sample_quota
        then begin
          Hashtbl.replace ts.quota e.B.name (used + r.R.steps);
          ts.samples <-
            { s_job = j; s_trace = r.R.choices; s_steps = r.R.steps }
            :: ts.samples
        end;
        match r.R.bug with
        | Some k when stop_at_bug -> (i + 1, Some (k, r))
        | _ -> go (i + 1)
    end
  in
  let execs, bug = go 0 in
  (execs, !steps, bug, acc)

(* ------------------------------------------------------------------ *)
(* Work items                                                          *)
(* ------------------------------------------------------------------ *)

(* Shrinking a bound-length liveness witness takes minutes (the vnext,
   fabric and replication ones run 5,000-choice executions per candidate),
   so witnesses longer than [shrink_limit] choices are only replayed; the
   known cost of shrinking them is recorded in the benchmark notes. *)
let shrink_limit = 2_000

let triage rd (j : job) cfg body (report : Psharp.Error.report) =
  let e = j.entry in
  let calls = ref 0 in
  let counted ctx =
    incr calls;
    body ctx
  in
  let t0 = now () in
  let shrunk =
    if T.length report.Psharp.Error.trace > shrink_limit then begin
      rd.shrink_skipped <- rd.shrink_skipped + 1;
      report
    end
    else Psharp.Shrinker.shrink ~monitors:e.B.monitors cfg report counted
  in
  let t1 = now () in
  let replayed =
    E.replay ~monitors:e.B.monitors cfg shrunk.Psharp.Error.trace body
  in
  let t2 = now () in
  rd.triage_ns <- rd.triage_ns + (t2 - t0);
  rd.shrink_ns <- rd.shrink_ns + (t1 - t0);
  rd.replay_ns <- rd.replay_ns + (t2 - t1);
  rd.shrink_reexecs <- rd.shrink_reexecs + !calls;
  let n = T.length shrunk.Psharp.Error.trace in
  rd.replay_choices <- rd.replay_choices + n;
  rd.replay_log_lines <- rd.replay_log_lines + List.length replayed.R.log;
  rd.witness_lens <- n :: rd.witness_lens;
  rd.orig_lens <- T.length report.Psharp.Error.trace :: rd.orig_lens;
  if rd.traced then rd.witnesses <- shrunk.Psharp.Error.trace :: rd.witnesses;
  let want = Psharp.Error.kind_to_string shrunk.Psharp.Error.kind in
  check rd
    (match replayed.R.bug with
     | Some k -> Psharp.Error.kind_to_string k = want
     | None -> false)
    (Printf.sprintf "%s: shrunk witness does not replay to %S" j.label want);
  sign rd "%s shrunk %d" j.label n

(* [Engine.run] over a job's budget in chunks of [chunk] executions.
   Random and PCT seed every execution from its global index, so the
   chunks explore exactly the schedules of one run, stopping at the same
   first bug, and the speed probe gets to run between them. Returns
   executions, steps, the bug report and the wall time. *)
let chunk = 64

let run_chunked rd (j : job) (cfg : E.config) body =
  let rec go start execs steps ns =
    let n = min chunk (cfg.E.max_executions - start) in
    if n <= 0 then (execs, steps, None, ns)
    else
      let t0 = now () in
      let out =
        E.run ~monitors:j.entry.B.monitors
          { cfg with E.start_iteration = start; max_executions = n }
          body
      in
      let dt = now () - t0 in
      let x, s, bug =
        match out with
        | E.Bug_found (r, st) -> (st.E.executions, st.E.total_steps, Some r)
        | E.No_bug st -> (st.E.executions, st.E.total_steps, None)
      in
      account rd j.group ~execs:x ~steps:s ~ns:dt;
      let execs = execs + x and steps = steps + s and ns = ns + dt in
      if bug <> None then (execs, steps, bug, ns)
      else go (start + n) execs steps ns
  in
  go 0 0 0 0

(* A hunt to the first bug, falling back to the pinned-input custom
   harness (as Table 2 does) when the default one misses. Fuzz hunts are
   one [Engine.run] (the fuzzer's corpus lives in its factory) and count
   only in the hunt time: how long they run depends on the seed. *)
let hunt rd ?ts ?(must_find = true) ~triage_found (j : job) =
  let e = j.entry in
  let cfg =
    config_of
      ~audit:(fun o ->
        rd.scen_execs <- rd.scen_execs + 1;
        if Psharp.Scenario.Obs.wedges o > 0 then
          rd.scen_wedged <- rd.scen_wedged + 1)
      j
  in
  let attempt body =
    let execs, steps, bug, ns =
      match ts with
      | None when j.strat <> Fuzz2 -> run_chunked rd j cfg body
      | None -> begin
        let t0 = now () in
        match E.run ~monitors:e.B.monitors cfg body with
        | E.Bug_found (report, st) ->
          (st.E.executions, st.E.total_steps, Some report, now () - t0)
        | E.No_bug st -> (st.E.executions, st.E.total_steps, None, now () - t0)
      end
      | Some ts ->
        let t0 = now () in
        (* the fuzzer needs coverage feedback, as in [Engine.run] *)
        let execs, steps, bug, _ =
          traced_loop ts j cfg body ~stop_at_bug:true
            ~coverage:(j.strat = Fuzz2)
        in
        let ns = now () - t0 in
        if j.strat <> Fuzz2 then account rd j.group ~execs ~steps ~ns;
        let report =
          Option.map
            (fun (kind, (r : R.exec_result)) ->
              {
                Psharp.Error.kind;
                step = r.R.bug_step;
                trace = r.R.choices;
                log = [];
              })
            bug
        in
        (execs, steps, report, ns)
    in
    if must_find then rd.hunt_ns <- rd.hunt_ns + ns;
    (execs, steps, bug)
  in
  let execs, steps, bug, body =
    match attempt e.B.harness with
    | (_, _, Some _) as r ->
      let x, s, b = r in
      (x, s, b, e.B.harness)
    | x1, s1, None -> begin
      match (e.B.custom_harness, j.scenario) with
      | Some custom, None ->
        let x2, s2, b = attempt custom in
        (x1 + x2, s1 + s2, b, custom)
      | _ -> (x1, s1, None, e.B.harness)
    end
  in
  if must_find then rd.hunts <- rd.hunts + 1;
  rd.checks <- rd.checks + 1;
  sign rd "%s execs %d steps %d" j.label execs steps;
  match bug with
  | None when not must_find -> ()
  | Some report when not must_find ->
    (* a scenario may steer its target into another failure (message
       loss deadlocks the Paxos harness), so its finds are not judged *)
    triage rd j cfg body report
  | None ->
    rd.misses <- rd.misses + 1;
    fail rd (Printf.sprintf "%s: no bug within %d executions" j.label j.budget)
  | Some report when not (kind_ok e report.Psharp.Error.kind) ->
    rd.misses <- rd.misses + 1;
    fail rd
      (Printf.sprintf "%s: wrong kind of bug: %s" j.label
         (Psharp.Error.kind_to_string report.Psharp.Error.kind))
  | Some report ->
    if must_find then rd.hunt_execs <- execs :: rd.hunt_execs;
    if triage_found then triage rd j cfg body report

(* Fixed-budget exploration. The explore workload runs the bug-free
   variants with coverage off through [Engine.run] (which then never
   stops early); the fuzz workload measures coverage at a fixed budget
   through [Engine.explore]. *)
let explore rd ?ts (j : job) =
  let e = j.entry in
  let cfg = config_of j in
  let body = body_of j in
  let fuzz = j.strat = Fuzz2 in
  let timed f =
    let t0 = now () in
    let execs, steps, cov, bug = f () in
    account rd j.group ~execs ~steps ~ns:(now () - t0);
    (execs, steps, cov, bug)
  in
  let execs, steps, cov, bug =
    match ts with
    | None when fuzz ->
      timed (fun () ->
          let st = E.explore ~monitors:e.B.monitors cfg body in
          (st.E.executions, st.E.total_steps, st.E.coverage, None))
    | None ->
      let execs, steps, bug, _ = run_chunked rd j cfg body in
      (execs, steps, None, Option.map (fun r -> r.Psharp.Error.kind) bug)
    | Some ts ->
      timed (fun () ->
          let execs, steps, bug, acc =
            traced_loop ts j cfg body ~stop_at_bug:(not fuzz) ~coverage:fuzz
          in
          (execs, steps, acc, Option.map fst bug))
  in
  rd.checks <- rd.checks + 1;
  (match bug with
   | Some k ->
     fail rd
       (Printf.sprintf "%s: the bug-free harness reported %s" j.label
          (Psharp.Error.kind_to_string k))
   | None -> ());
  if execs <> j.budget then
    fail rd
      (Printf.sprintf "%s: ran %d of %d executions" j.label execs j.budget);
  match cov with
  | Some c ->
    let t = Cov.totals c in
    rd.cov_points <-
      rd.cov_points + t.Cov.machine_states + t.Cov.event_types
      + t.Cov.transition_triples + t.Cov.branch_outcomes;
    rd.partial_orders <- rd.partial_orders + t.Cov.partial_orders;
    sign rd "%s execs %d steps %d digest %s" j.label execs steps
      (Cov.schedule_digest c)
  | None -> sign rd "%s execs %d steps %d" j.label execs steps

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

let rec dir_bytes path =
  if Sys.is_directory path then
    Array.fold_left
      (fun a f -> a + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

let campaign_dir dir (j : job) =
  Filename.concat dir ("campaign-" ^ j.entry.B.name)

let campaign_config (j : job) (c : Psharp.Campaign.t) ~budget =
  let ex = Psharp.Fuzz_strategy.Exchange.of_entries c.Psharp.Campaign.corpus in
  ( {
      (config_of j) with
      E.seed = c.Psharp.Campaign.seed;
      max_executions = budget;
      start_iteration = c.Psharp.Campaign.executions;
      prior_coverage =
        (if c.Psharp.Campaign.executions = 0 then None
         else Some c.Psharp.Campaign.coverage);
      fuzz_exchange = Some ex;
    },
    ex )

(* One campaign invocation: explore [budget] executions from [c], fold
   them in. *)
let campaign_step (j : job) c ~budget =
  let cfg, ex = campaign_config j c ~budget in
  let st = E.explore ~monitors:j.entry.B.monitors cfg j.entry.B.harness in
  let coverage =
    Option.value st.E.coverage ~default:c.Psharp.Campaign.coverage
  in
  let c' =
    Psharp.Campaign.advance c ~executions:st.E.executions ~coverage
      ~corpus:(Psharp.Fuzz_strategy.Exchange.snapshot ex)
  in
  (st, c')

let prepare_campaigns plan dir =
  List.iter
    (fun (j : job) ->
      let c = Psharp.Campaign.create ~harness:j.entry.B.name ~seed:j.seed in
      let _, c = campaign_step j c ~budget:campaign_prepare_budget in
      Psharp.Campaign.save ~dir:(campaign_dir dir j) c)
    plan.campaigns

(* Resume a loaded campaign, save it, load it back and check the round
   trip. *)
let resume_campaign rd dir (j, (c : Psharp.Campaign.t)) =
  let t0 = now () in
  let st, c' = campaign_step j c ~budget:campaign_resume_budget in
  let ns = now () - t0 in
  account rd j.group ~execs:st.E.executions ~steps:st.E.total_steps ~ns;
  let out = Filename.concat dir ("resumed-" ^ j.entry.B.name) in
  let t1 = now () in
  Psharp.Campaign.save ~dir:out c';
  let t2 = now () in
  let back = Psharp.Campaign.load ~dir:out in
  let t3 = now () in
  rd.camp_save_ns <- rd.camp_save_ns + (t2 - t1);
  rd.camp_load_ns <- rd.camp_load_ns + (t3 - t2);
  rd.camp_bytes <- rd.camp_bytes + dir_bytes out;
  rd.camp_saves <- rd.camp_saves + 1;
  rd.camp_corpus <- rd.camp_corpus + List.length c'.Psharp.Campaign.corpus;
  check rd
    (Cov.equal back.Psharp.Campaign.coverage c'.Psharp.Campaign.coverage
    && List.length back.Psharp.Campaign.corpus
       = List.length c'.Psharp.Campaign.corpus
    && back.Psharp.Campaign.executions = c'.Psharp.Campaign.executions)
    (j.label ^ ": Campaign.load does not return what Campaign.save wrote");
  sign rd "%s resumed execs %d corpus %d digest %s" j.label
    c'.Psharp.Campaign.executions
    (List.length c'.Psharp.Campaign.corpus)
    (Cov.schedule_digest c'.Psharp.Campaign.coverage)

(* ------------------------------------------------------------------ *)
(* Set-up and rounds                                                   *)
(* ------------------------------------------------------------------ *)

type ready = {
  plan : plan;
  loaded : (job * Psharp.Campaign.t) list;
  setup_ns : int;
}

(* Everything a workload does before its first execution: build the
   plan and assert its seed spacing, parse every catalog scenario text
   (and check it renders back to itself), and load the campaigns the fuzz
   workload resumes. *)
let setup workload wseed dir =
  let t0 = now () in
  let plan = make_plan workload wseed in
  check_spacing
    (List.map (fun (j : job) -> (j.seed, j.budget, j.label)) (all_jobs plan));
  List.iter
    (fun (sc : SC.entry) ->
      match Psharp.Scenario.of_string sc.SC.text with
      | Ok s ->
        if Psharp.Scenario.to_string s <> sc.SC.text then
          failwith (sc.SC.name ^ ": scenario text is not a fixpoint")
      | Error msg -> failwith (sc.SC.name ^ ": " ^ msg))
    SC.all;
  let loaded =
    List.map
      (fun j -> (j, Psharp.Campaign.load ~dir:(campaign_dir dir j)))
      plan.campaigns
  in
  { plan; loaded; setup_ns = now () - t0 }

let run_round ?ts (ready : ready) dir =
  let rd = new_round ~traced:(ts <> None) in
  let p = ready.plan in
  let t0 = now () in
  List.iter (fun j -> explore rd ?ts j) p.explores;
  List.iter
    (fun j -> hunt rd ?ts ~triage_found:(p.workload = "hunt") j)
    p.hunts;
  List.iter
    (fun j -> hunt rd ?ts ~must_find:false ~triage_found:true j)
    p.scenarios;
  List.iter (resume_campaign rd dir) ready.loaded;
  if rd.window <> [] then close_window rd;
  rd.heap_words <- (Gc.quick_stat ()).Gc.top_heap_words;
  (rd, now () - t0)

(* ------------------------------------------------------------------ *)
(* Per-layer deltas over identical schedules                           *)
(* ------------------------------------------------------------------ *)

let replay_exec ?coverage ?hb (s : sample) body =
  let cfg = config_of s.s_job in
  let strategy =
    let f = Psharp.Replay_strategy.factory s.s_trace in
    match f.Psharp.Strategy.fresh ~iteration:0 with
    | Some st -> st
    | None -> assert false
  in
  let t0 = now () in
  let r =
    R.execute (rt_config ?coverage ?hb cfg) strategy
      ~monitors:(s.s_job.entry.B.monitors ()) ~name:"Harness" body
  in
  (now () - t0, r)

type delta = {
  mutable d_steps : int;
  mutable d_off_ns : int;
  mutable d_on_ns : int;
  mutable d_samples : int;
  mutable d_diverged : int;
}

let new_delta () =
  { d_steps = 0; d_off_ns = 0; d_on_ns = 0; d_samples = 0; d_diverged = 0 }

let per_step d =
  if d.d_steps = 0 then 0.
  else float_of_int (d.d_on_ns - d.d_off_ns) /. float_of_int d.d_steps

(* Coverage, happens-before and the chaintable linearizability oracle,
   each on minus off over the same recorded schedule; a pair counts only
   when both sides ran exactly that schedule. *)
let deltas samples =
  let cov = new_delta () and hb = new_delta () and lin = new_delta () in
  let same (s : sample) (r : R.exec_result) =
    r.R.steps = s.s_steps && T.equal r.R.choices s.s_trace
  in
  let pair d (s : sample) ~off ~on =
    let ns_off, r_off = off () in
    let ns_on, r_on = on () in
    if same s r_off && same s r_on then begin
      d.d_steps <- d.d_steps + s.s_steps;
      d.d_off_ns <- d.d_off_ns + ns_off;
      d.d_on_ns <- d.d_on_ns + ns_on;
      d.d_samples <- d.d_samples + 1
    end
    else d.d_diverged <- d.d_diverged + 1
  in
  List.iter
    (fun (s : sample) ->
      let body = body_of s.s_job in
      let off () = replay_exec s body in
      pair cov s ~off ~on:(fun () ->
          replay_exec ~coverage:(Cov.create ()) s body);
      pair hb s ~off ~on:(fun () ->
          replay_exec ~hb:(Psharp.Hb.create ()) s body);
      match s.s_job.entry.B.lin with
      | Some l when not l.B.lin_default ->
        let lin_body =
          if s.s_job.fixed then l.B.lin_fixed ~history_out:None
          else l.B.lin_harness ~history_out:None
        in
        pair lin s ~off ~on:(fun () -> replay_exec s lin_body)
      | _ -> ())
    (List.rev samples);
  (cov, hb, lin)

(* Trace print/parse cost per choice over the given traces, repeated to
   a measurable total; every parse must give back the printed trace. *)
let trace_costs traces =
  let choices = List.fold_left (fun a t -> a + T.length t) 0 traces in
  let reps = max 1 (2_000_000 / max 1 choices) in
  let print_ns = ref 0 and parse_ns = ref 0 and ok = ref true in
  for _ = 1 to reps do
    List.iter
      (fun t ->
        let t0 = now () in
        let s = T.to_string t in
        let t1 = now () in
        let back = T.of_string s in
        let t2 = now () in
        print_ns := !print_ns + (t1 - t0);
        parse_ns := !parse_ns + (t2 - t1);
        if not (T.equal back t) then ok := false)
      traces
  done;
  let per ns =
    if choices = 0 then 0. else float_of_int ns /. float_of_int (reps * choices)
  in
  (per !print_ns, per !parse_ns, !ok)

(* Cost of one clock read, charged once per decision inside the strategy
   span and once outside it. *)
let clock_cost () =
  let n = 200_000 in
  let t0 = now () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (now ()))
  done;
  float_of_int (now () - t0) /. float_of_int n

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let first_line cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    line
  with Unix.Unix_error _ -> ""

let provenance plan =
  let commit = first_line "git rev-parse HEAD" in
  O
    [
      ("commit", S (if commit = "" then "unknown" else commit));
      ( "nproc",
        I (Option.value ~default:0 (int_of_string_opt (first_line "nproc"))) );
      ("ocaml", S Sys.ocaml_version);
      ("workload", S plan.workload);
      ("seed", I plan.wseed);
      ("workers", I 1);
      ( "budgets",
        O
          [
            ("hunt_budget", I hunt_budget);
            ("hunt_subseeds", I hunt_subseeds);
            ("scenario_budget", I scenario_budget);
            ("shrink_limit", I shrink_limit);
            ( "explore",
              O (List.map (fun (n, b) -> (n, I b)) explore_harnesses) );
            ("fuzz_explore_budget", I fuzz_explore_budget);
            ("fuzz_hunt_budget", I fuzz_hunt_budget);
            ("fuzz_subseeds", I fuzz_subseeds);
            ("campaign_prepare_budget", I campaign_prepare_budget);
            ("campaign_resume_budget", I campaign_resume_budget);
            ("sample_quota", I sample_quota);
          ] );
      ("jobs", I (List.length (all_jobs plan)));
    ]

let div a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let metric ?n v unit =
  O
    (("value", F v) :: ("unit", S unit)
    :: (match n with Some n -> [ ("samples", I n) ] | None -> []))

type rate = { g : string; execs : int; steps : int; ns : int; ref_ns : float }

(* Executions, steps and wall time per harness group, summed over
   [rds]. *)
let rates_of rds =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun rd ->
      Hashtbl.iter
        (fun g t ->
          let r =
            Option.value (Hashtbl.find_opt tbl g)
              ~default:{ g; execs = 0; steps = 0; ns = 0; ref_ns = 0. }
          in
          Hashtbl.replace tbl g
            {
              r with
              execs = r.execs + t.t_execs;
              steps = r.steps + t.t_steps;
              ns = r.ns + t.t_ns;
              ref_ns = r.ref_ns +. t.t_ref_ns;
            })
        rd.tput)
    rds;
  List.sort compare (Hashtbl.fold (fun _ r a -> r :: a) tbl [])

let execs_rate r = fi r.execs /. secs r.ns
let steps_rate r = fi r.steps /. secs r.ns
let steps_ref_rate r = fi r.steps /. (r.ref_ns /. 1e9)

let e2e (plan : plan) rds =
  let r1 = List.hd rds in
  let n_rounds = List.length rds in
  let rounds_median f = median (List.map f rds) in
  (* per round, the geometric mean over harness groups, so each harness
     weighs the same; then the median over rounds, which all repeat the
     same work *)
  let round_rate pick =
    rounds_median (fun rd -> gmean (List.map pick (rates_of [ rd ])))
  in
  let groups = List.length (rates_of [ r1 ]) in
  let xs = List.map fi r1.hunt_execs in
  let hunts =
    if plan.hunts = [] then []
    else
      [
        ( "hunt_wall_s",
          metric ~n:n_rounds (rounds_median (fun rd -> secs rd.hunt_ns)) "s" );
        ("hunt_execs_gmean", metric ~n:(List.length xs) (gmean xs) "count");
        ( "hunt_execs_p90",
          metric ~n:(List.length xs) (percentile 0.9 xs) "count" );
        ( "hunt_miss_ratio",
          metric ~n:r1.hunts (ratio r1.misses r1.hunts) "ratio" );
      ]
  in
  let triage =
    if plan.workload <> "hunt" then []
    else
      [
        ( "triage_s",
          metric ~n:n_rounds (rounds_median (fun rd -> secs rd.triage_ns)) "s"
        );
        ( "witness_choices_gmean",
          metric
            ~n:(List.length r1.witness_lens)
            (gmean (List.map fi r1.witness_lens))
            "count" );
      ]
  in
  let cov =
    if plan.workload <> "fuzz" then []
    else
      [
        ("coverage_points", metric (fi r1.cov_points) "count");
        ("partial_orders", metric (fi r1.partial_orders) "count");
      ]
  in
  [
    ("execs_per_s", metric ~n:groups (round_rate execs_rate) "1/s");
    ("steps_per_s", metric ~n:groups (round_rate steps_rate) "1/s");
    ("steps_per_ref_s", metric ~n:groups (round_rate steps_ref_rate) "1/s");
  ]
  @ hunts @ triage @ cov
  @ [
      (* the peak of one pass over the workload: the peak at the end of
         the run would grow with the number of rounds that fit *)
      ( "heap_peak_mb",
        metric (fi (r1.heap_words * (Sys.word_size / 8)) /. 1048576.) "MB" );
    ]

let groups_json rds =
  O
    (List.map
       (fun r ->
         ( r.g,
           O
             [
               ("execs_per_s", F (execs_rate r));
               ("steps_per_s", F (steps_rate r));
               ("steps_per_ref_s", F (steps_ref_rate r));
               ("executions", I r.execs);
               ("steps", I r.steps);
               ("wall_s", F (secs r.ns));
             ] ))
       (rates_of rds))

let round_json (rd, ns) =
  O
    [
      ("wall_s", F (secs ns));
      ("probe_ms", F (median (List.map (fun p -> fi p /. 1e6) rd.probes)));
      ("hunt_s", F (secs rd.hunt_ns));
      ("triage_s", F (secs rd.triage_ns));
    ]

(* Layers timed around calls the rounds make anyway (cheap enough to keep
   in every round). *)
let round_layers rd =
  let w = fi (List.length rd.witness_lens) in
  let saves = fi rd.camp_saves in
  [
    ( "shrink.reexecs_per_witness",
      metric (div (fi rd.shrink_reexecs) w) "count" );
    ("shrink.skipped_ratio", metric (div (fi rd.shrink_skipped) w) "ratio");
    ("shrink.s_per_witness", metric (div (secs rd.shrink_ns) w) "s");
    ( "shrink.choice_ratio",
      metric
        (gmean
           (List.map2
              (fun a b -> fi a /. fi (max 1 b))
              rd.witness_lens rd.orig_lens))
        "ratio" );
    ( "replay.us_per_choice",
      metric (div (fi rd.replay_ns /. 1e3) (fi rd.replay_choices)) "us" );
    ( "replay.log_lines_per_choice",
      metric (ratio rd.replay_log_lines rd.replay_choices) "ratio" );
    ( "scenario.wedge_ratio",
      metric (ratio rd.scen_wedged rd.scen_execs) "ratio" );
    ("campaign.save_ms", metric (div (fi rd.camp_save_ns /. 1e6) saves) "ms");
    ("campaign.load_ms", metric (div (fi rd.camp_load_ns /. 1e6) saves) "ms");
    ("campaign.bytes", metric (div (fi rd.camp_bytes) saves) "bytes");
    ("fuzz.corpus_size", metric (div (fi rd.camp_corpus) saves) "count");
  ]

(* name, unit, value for one harness group *)
let layer_values ~clock (l : layer) =
  let c = clock *. fi l.l_decisions in
  let st = fi (max 1 l.l_steps) and ex = fi (max 1 l.l_execs) in
  [
    ("runtime.ns_per_step", "ns", (fi (l.l_exec_ns - l.l_strat_ns) -. c) /. st);
    ("runtime.minor_words_per_step", "words", l.l_minor /. st);
    ("runtime.promoted_words_per_step", "words", l.l_promoted /. st);
    ("runtime.major_gcs_per_kexec", "count", 1000. *. fi l.l_majors /. ex);
    ("runtime.steps_per_exec", "count", fi l.l_steps /. ex);
    ("strategy.decisions_per_step", "count", fi l.l_decisions /. st);
    ( "strategy.ns_per_decision",
      "ns",
      (fi l.l_strat_ns -. c) /. fi (max 1 l.l_decisions) );
    ("fault.injected_per_exec", "count", fi l.l_faults /. ex);
    ("clock.virtual_time_per_exec", "count", fi l.l_vtime /. ex);
  ]

let delta_json d =
  O
    [
      ("samples", I d.d_samples);
      ("diverged", I d.d_diverged);
      ("steps", I d.d_steps);
      ("off_s", F (secs d.d_off_ns));
      ("on_s", F (secs d.d_on_ns));
    ]

(* The per-layer metrics of a traced run, the per-harness detail, and
   whether every on/off pair and trace round trip checked out. *)
let traced_layers ts ~clock ~overhead ~witnesses rd =
  let per_group =
    List.sort compare
      (Hashtbl.fold
         (fun g l a -> (g, layer_values ~clock l) :: a)
         ts.layers [])
  in
  (* the workload-level value is the geometric mean over harness groups,
     or the arithmetic mean when a group reads 0 (no faults, no clock) *)
  let overall =
    match per_group with
    | [] -> []
    | (_, first) :: _ ->
      List.map
        (fun (name, unit, _) ->
          let vs =
            List.map
              (fun (_, vals) ->
                let _, _, v = List.find (fun (n, _, _) -> n = name) vals in
                v)
              per_group
          in
          let v =
            if List.for_all (fun v -> v > 0.) vs then gmean vs
            else List.fold_left ( +. ) 0. vs /. fi (List.length vs)
          in
          (name, metric v unit))
        first
  in
  let cov, hb, lin = deltas ts.samples in
  let traces = witnesses @ List.map (fun s -> s.s_trace) ts.samples in
  let print_ns, parse_ns, roundtrip_ok = trace_costs traces in
  let per_exec ns = div (fi ns /. 1e3) (fi ts.cov_execs) in
  let layers =
    overall
    @ [
        ("coverage.record_ns_per_step", metric (per_step cov) "ns");
        ("hb.record_ns_per_step", metric (per_step hb) "ns");
        ("lin.ns_per_step_delta", metric (per_step lin) "ns");
        ("trace.print_ns_per_choice", metric print_ns "ns");
        ("trace.parse_ns_per_choice", metric parse_ns "ns");
        ("trace.overhead_ratio", metric overhead "ratio");
        ("coverage.absorb_us_per_exec", metric (per_exec ts.absorb_ns) "us");
        ("coverage.note_us_per_exec", metric (per_exec ts.note_ns) "us");
        ( "coverage.novel_exec_ratio",
          metric (ratio ts.novel ts.cov_execs) "ratio" );
        ("hb.fingerprint_us_per_exec", metric (per_exec ts.hbfp_ns) "us");
        ("fuzz.feedback_us_per_exec", metric (per_exec ts.feedback_ns) "us");
        ("fuzz.admit_ratio", metric (ratio ts.admitted ts.cov_execs) "ratio");
      ]
    @ round_layers rd
  in
  let detail =
    O
      [
        ( "per_harness",
          O
            (List.map
               (fun (g, vals) ->
                 (g, O (List.map (fun (n, _, v) -> (n, F v)) vals)))
               per_group) );
        ("coverage_delta", delta_json cov);
        ("hb_delta", delta_json hb);
        ("lin_delta", delta_json lin);
        ("clock_read_ns", F clock);
        ("strategy_fresh_s", F (secs ts.fresh_ns));
        ("trace_roundtrip_ok", Bool roundtrip_ok);
      ]
  in
  (layers, detail, roundtrip_ok && cov.d_diverged = 0 && hb.d_diverged = 0)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* Rounds after the first, while another one would end nearer the
   deadline than not. *)
let rec more_rounds ?ts ready dir ~deadline ~round_ns acc =
  if now () + (round_ns / 2) >= deadline then List.rev acc
  else
    more_rounds ?ts ready dir ~deadline ~round_ns
      (run_round ?ts ready dir :: acc)

let check_repeats first rest what =
  List.iter
    (fun (rd, _) ->
      if rd.signature <> first.signature then
        fail first ("a repeated " ^ what ^ " round explored other schedules"))
    rest

let failures_json rds =
  let fails =
    List.sort_uniq compare (List.concat_map (fun rd -> rd.failures) rds)
  in
  [
    ("failed", I (List.length fails));
    ("failures", L (List.map (fun s -> S s) fails));
  ]

(* One round for the end-to-end metrics, as many as fit in the measured
   time. *)
let run_untraced ready dir ~deadline =
  let first, first_ns = run_round ready dir in
  let rest = more_rounds ready dir ~deadline ~round_ns:first_ns [] in
  check_repeats first rest "untraced";
  let rds = first :: List.map fst rest in
  [
    ("rounds", L (List.map round_json ((first, first_ns) :: rest)));
    ("e2e", O (e2e ready.plan rds));
    ("groups", groups_json rds);
    ("attempted", I first.checks);
  ]
  @ failures_json rds

(* Two untraced rounds (the first warms the heap), then traced rounds
   until the measured time is spent; the traced run must explore exactly
   the untraced schedules. *)
let run_traced ready dir ~deadline =
  let cold, cold_ns = run_round ready dir in
  let warm, warm_ns = run_round ready dir in
  check_repeats cold [ (warm, warm_ns) ] "untraced";
  let ts = new_tstate () in
  let clock = clock_cost () in
  let traced, traced_ns = run_round ~ts ready dir in
  let rest = more_rounds ~ts ready dir ~deadline ~round_ns:traced_ns [] in
  check_repeats traced rest "traced";
  if traced.signature <> cold.signature then begin
    List.iter2
      (fun a b -> if a <> b then prerr_endline ("diverged: " ^ a ^ " | " ^ b))
      (List.rev cold.signature) (List.rev traced.signature);
    fail traced "the traced run diverged from the untraced one"
  end;
  let layers, detail, deltas_ok =
    traced_layers ts ~clock
      ~overhead:(fi traced_ns /. fi warm_ns)
      ~witnesses:traced.witnesses
      traced
  in
  if not deltas_ok then fail traced "an on/off pair ran other schedules";
  [
    ( "rounds",
      L
        (List.map round_json
           [ (cold, cold_ns); (warm, warm_ns); (traced, traced_ns) ]) );
    ("e2e", O (e2e ready.plan [ cold ]));
    ("per_layer", O layers);
    ("detail", detail);
    ("attempted", I (cold.checks + traced.checks));
  ]
  @ failures_json [ cold; warm; traced ]

let () =
  let mode = ref "" and workload = ref "" and seed = ref 0 in
  let seconds = ref 10. and dir = ref "." in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "hunt|explore|fuzz");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured time");
      ("--dir", Arg.Set_string dir, "work directory");
    ]
  in
  Arg.parse spec
    (fun m -> mode := m)
    "main.exe (setup|prepare|run|trace|probe) --workload W --seed N --dir D";
  match !mode with
  | "prepare" -> prepare_campaigns (make_plan !workload !seed) !dir
  | "probe" ->
    (* library-free work in a fresh process, the runner's yardstick for
       the machine's speed while it times set-up *)
    ignore (probe ());
    ignore (probe ())
  | "setup" ->
    let r = setup !workload !seed !dir in
    print_endline (to_json (O [ ("setup_s", F (secs r.setup_ns)) ]))
  | ("run" | "trace") as m ->
    let ready = setup !workload !seed !dir in
    let start = now () in
    let deadline = start + int_of_float (!seconds *. 1e9) in
    let result =
      if m = "run" then run_untraced ready !dir ~deadline
      else run_traced ready !dir ~deadline
    in
    print_endline
      (to_json
         (O
            (("provenance", provenance ready.plan)
            :: ("setup_inproc_s", F (secs ready.setup_ns))
            :: ("measured_s", F (secs (now () - start)))
            :: result)))
  | m ->
    prerr_endline ("unknown mode " ^ m);
    exit 2
