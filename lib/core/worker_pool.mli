(** Domain-parallel iteration driver.

    Fans a budget of independent iterations (systematic-testing executions)
    across OCaml 5 domains. Work is handed out in {e batches}: a shared
    atomic cursor claims [batch] consecutive global iterations at a time
    (16 by default), so the only shared-memory traffic on the per-iteration
    hot path is one read of the early-stop bound — progress counters and
    results accumulate in worker-local records and are folded after the
    join. The {e set} of iterations explored (and hence, for seed-derived
    strategies, the set of schedules explored) is identical for every
    worker count and batch size, including the sequential case; only the
    wall-clock order of exploration can vary. A single worker runs inline
    in the calling domain: no domain is spawned.

    Each worker builds its own iteration state (strategy factory, PRNGs)
    via [init], inside its own domain. Requested worker counts beyond the
    available cores are clamped to the core count: the iterations are
    independent and minor collections are stop-the-world across domains,
    so oversubscription only multiplies GC barriers without exploring
    anything extra. Setting the environment variable
    [PSHARP_OVERSUBSCRIBE=1] disables the clamp (used by tests to exercise
    the multi-domain machinery on small machines). *)

type stats = {
  executions : int;  (** iterations completed across all workers *)
  total_steps : int;  (** sum of per-iteration step counts *)
  elapsed : float;  (** wall-clock seconds for the whole fan-out *)
  timed_out : bool;
      (** some worker stopped because [max_seconds] ran out (the iteration
          budget was not exhausted) *)
}

(** [resolve n] is the effective worker count: [n] itself when positive,
    the number of available cores ([Domain.recommended_domain_count])
    when [n = 0].
    @raise Invalid_argument when [n] is negative. *)
val resolve : int -> int

(** [hunt ?batch ~workers ~max_iterations ?max_seconds ~init ~body ()]
    drives [body] over iterations [0 .. max_iterations - 1], claimed
    [batch] consecutive iterations at a time (default 16; the wall-clock
    deadline is polled once per claimed batch), and stops early once
    a [Some] result is found: the first report min-updates an atomic
    iteration bound, and workers keep completing iterations {e below} the
    best known result (possibly lowering the bound further) while skipping
    those above it. Batch claims are monotone, so every iteration below a
    reported one is guaranteed to have been claimed and run. [body]
    returns the optional result of one iteration plus the number of
    scheduler steps it took. Returns the winning result tagged with its
    global iteration index — always the {e lowest} reporting iteration, so
    for deterministic iterations the winner is identical at every worker
    count and batch size (only the number of higher iterations
    additionally explored varies with timing). A worker exception is
    re-raised in the calling domain after all workers have been joined.

    [on_batch state] is called on the worker's own state after each
    claimed batch completes and once more before the worker exits — the
    engine merges per-worker coverage shards there, keeping the
    per-iteration path free of shared mutexes. *)
val hunt :
  ?batch:int ->
  workers:int ->
  max_iterations:int ->
  ?max_seconds:float ->
  init:(worker:int -> 'w) ->
  ?on_batch:('w -> unit) ->
  body:('w -> iteration:int -> 'r option * int) ->
  unit ->
  ('r * int) option * stats

(** [sweep] is [hunt] without the early stop: every iteration of the
    budget runs (subject to [max_seconds]) and all [Some] results are
    collected, sorted by iteration index. *)
val sweep :
  ?batch:int ->
  workers:int ->
  max_iterations:int ->
  ?max_seconds:float ->
  init:(worker:int -> 'w) ->
  ?on_batch:('w -> unit) ->
  body:('w -> iteration:int -> 'r option * int) ->
  unit ->
  ('r * int) list * stats
