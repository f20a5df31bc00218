open Oqmc_particle
open Oqmc_core

(** Supervised multi-rank DMC execution: one generation coordinator
    drives N member ranks through a deadline-budgeted generation
    protocol ({!Wire}) with per-read heartbeat deadlines, performs real
    walker exchange for load balance, and recovers from rank crashes,
    stalls and corrupted streams by respawning from per-rank checkpoint
    shards.  The rank side of every frame is {!Rank.handle}.

    The coordinator runs over one of two transports: forked processes
    over pipes ({!run}, [run_job ~local:false]) or an in-process
    loopback that calls {!Rank.handle} directly ({!run_local},
    [run_job ~local:true]).  The loopback never injects faults and sends
    no real heartbeat; it is the only transport with job snapshots.

    The rank set is ELASTIC: a membership plan can grow it mid-run
    (spawn + [Join] + rebalance) and retire ranks gracefully ([Drain] →
    shard ships to the survivors → finish).  Slots abandoned when the
    respawn budget runs out become vacant and refillable by later
    joins, so degraded mode is reversible.  Ranks that blow the soft
    generation deadline are handled per {!straggler_policy}.

    Because both transports run the same coordinator and handler, a
    fault-free [run] is bit-identical to {!run_local}, with or without a
    membership plan. *)

type straggler_policy =
  | Warn  (** count + trace the straggler, nothing else *)
  | Steal
      (** shed a quarter of the straggler's walkers to the currently
          fastest rank *)
  | Quarantine
      (** three consecutive misses → treated as a stall: the rank is
          killed and respawned from its newest checkpoint shard *)

val straggler_policy_of_string : string -> straggler_policy option
(** ["warn" | "steal" | "quarantine"]. *)

val straggler_policy_name : straggler_policy -> string

(** How the exchange planner splits walkers across ranks. *)
type plan_mode =
  | Count_level
      (** even split — the historical, bit-identical default *)
  | Load_level
      (** throughput-proportional split from the per-rank ledger's
          speed weights; falls back to count levelling until every
          live rank has a throughput sample *)

val plan_mode_of_string : string -> plan_mode option
(** ["count" | "load"]. *)

val plan_mode_name : plan_mode -> string

type member_event =
  | Join  (** grow the rank set by one (lowest vacant slot, else a
              fresh id) *)
  | Leave of int  (** gracefully drain + retire this rank *)

type params = {
  ranks : int;
  target_walkers : int;  (** global population target *)
  warmup : int;
  generations : int;
  tau : float;
  seed : int;
  n_domains : int;  (** worker domains per rank *)
  feedback : float;
  heartbeat_s : float;  (** deadline on every read from a rank *)
  max_respawn : int;  (** respawns per rank before it is abandoned *)
  respawn_backoff : float;  (** base seconds, doubled per respawn *)
  checkpoint : string option;
  checkpoint_every : int;
  checkpoint_keep : int;
  restore : bool;  (** resume from the newest complete shard generation *)
  faults : (int * int * Fault.rank_fault) list;
      (** (rank, generation, fault) injection plan *)
  trace : string option;
      (** write a merged Chrome trace_event JSON timeline here: the
          supervisor's spans (pid -1) plus every rank's span ring,
          ingested from the [Final] frame under its rank id *)
  telemetry : string option;
      (** write one merged JSON record per measured generation here
          (gen, e_gen, e_trial, population, acceptance, walkers_per_s,
          live_ranks, rtt_max_s, respawns, wall_s), plus one record per
          membership transition *)
  telemetry_every : int;  (** emit every n-th measured generation *)
  progress : bool;  (** live one-line progress on stderr *)
  elastic : bool;
      (** enable the membership plan and (with [gen_deadline_ms > 0])
          asynchronous double-buffered shard checkpoints *)
  gen_deadline_ms : int;
      (** soft per-generation budget feeding the straggler policy;
          0 = classic lockstep behavior *)
  straggler_policy : straggler_policy;
  membership : (int * member_event) list;
      (** (generation, event): applied at the END of that generation,
          in list order.  Requires [elastic = true] *)
  plan : plan_mode;
      (** exchange planning mode; {!Count_level} (the default) keeps
          the trajectory bit-identical to the historical planner *)
  flightrec : string option;
      (** dump the {!Oqmc_obs.Flightrec} ring to this postmortem file
          on every abort path (rank failure, [All_ranks_lost],
          [Interrupted], fatal errors) *)
  status : string option;
      (** write a small live status JSON snapshot (progress + per-rank
          ledger windows) here, atomically renamed into place and
          throttled to ~4 Hz — what the serve daemon's Status endpoint
          reads *)
  on_window : (int -> unit) option;
      (** called (with the generation number) at every ledger-window
          boundary, before the status snapshot is written — the driver's
          hook for refreshing live gauges such as the efficiency audit.
          Exceptions are swallowed *)
}

val default_params : params

val validate : params -> unit
(** Reject inconsistent parameters before any work starts; every entry
    point below runs it first.
    @raise Invalid_argument naming the offending field. *)

(** One membership transition as it happened; [m_walkers_before =
    m_walkers_after] is the conservation invariant the chaos soak
    asserts. *)
type member_record = {
  m_gen : int;
  m_kind : string;  (** ["join"] or ["leave"] *)
  m_rank : int;
  m_live : int;  (** live ranks after the transition *)
  m_walkers_before : int;
  m_walkers_after : int;
}

type result = {
  energy : float;
  energy_error : float;
  variance : float;
  tau_corr : float;
  acceptance : float;
  wall_time : float;
  mean_population : float;
  energy_series : float array;
  population_series : int array;
  comm_messages : int;  (** walkers exchanged for load balance *)
  comm_bytes : int;  (** payload bytes of those walkers *)
  respawns : int;
  heartbeat_timeouts : int;
  garbage_frames : int;
  crashes : int;
  ranks_failed : int list;  (** abandonment events, ascending *)
  live_ranks : int;  (** live member count at the end of the run *)
  degraded_generations : int;
      (** generations reduced over fewer than [ranks] shards *)
  joins : int;
  leaves : int;
  stragglers : int;  (** soft-deadline misses observed *)
  steals : int;  (** walker-steal transfers performed *)
  membership_skipped : int;
      (** membership events that could not be applied (target rank
          gone, last rank, joiner failed to start) *)
  membership_log : member_record list;  (** chronological *)
  gen_p50_s : float;  (** per-generation wall-time percentiles *)
  gen_p99_s : float;
  final_walkers : Walker.t list;
  final_e_trial : float;
}

exception All_ranks_lost
(** Every rank is dead and the run cannot continue. *)

exception Interrupted of int
(** SIGTERM/SIGINT arrived; raised so the normal unwind path runs
    (children reaped, telemetry and trace sinks flushed + closed). *)

val of_chaos :
  Chaos.schedule ->
  (int * int * Fault.rank_fault) list * (int * member_event) list
(** Split a {!Chaos} schedule into the [faults] and [membership] params
    it drives. *)

val run : factory:(int -> Engine_api.t) -> params -> result
(** The coordinator over forked rank processes.  The caller must not
    hold live OCaml domains across this call (the supervisor forks).
    @raise All_ranks_lost when no rank survives, [Failure] when a rank
    fails during startup. *)

val run_local : factory:(int -> Engine_api.t) -> params -> result
(** The same coordinator over the in-process loopback: no fork, no
    pipes, including the elastic membership plan.  [faults] are never
    armed.  The bit-identity oracle for [run], and the single-process
    driver for rank-shaped runs. *)

(** {1 Reentrant per-job execution (the serve layer's entry point)} *)

(** How a {!run_job} call ended, alongside the usual {!result}. *)
type job_outcome = {
  job_result : result;
  gens_done : int;  (** generations executed by THIS call *)
  drained : bool;
      (** the [stop] poll ended the job early at a generation boundary;
          the estimators cover the generations actually run *)
  resumed_from : int;
      (** > 0: the job continued bit-identically from a {!Snapshot} of
          that generation instead of starting fresh *)
}

val run_job :
  factory:(int -> Engine_api.t) ->
  ?local:bool ->
  ?stop:(unit -> bool) ->
  ?snapshot:string ->
  ?snapshot_every:int ->
  params ->
  job_outcome
(** Run one job to completion (or graceful drain) and return.  Reentrant
    and signal-neutral: unlike {!run}/{!run_local} it NEVER installs
    SIGTERM/SIGINT handlers — the caller owns its signal policy and
    threads shutdown through [stop], polled at every generation
    boundary.  With [local = true] (default) the job executes over the
    in-process loopback and, given [snapshot], persists its full
    dynamical state every [snapshot_every] generations (plus at drain
    and completion) via {!Snapshot}, resuming bit-identically from the
    newest valid snapshot on the next call with the same parameters.
    [local = false] uses forked ranks (no snapshot support).
    @raise Invalid_argument for [snapshot] with [local = false], a
    snapshot with a non-empty membership plan, or [snapshot_every < 1]. *)
