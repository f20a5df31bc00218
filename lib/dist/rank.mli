open Oqmc_particle
open Oqmc_core

(** One worker rank of a supervised multi-rank DMC run: a population
    shard plus its own domain pool.  {!handle} is the rank side of the
    supervisor's generation protocol ({!Wire}), written once and run by
    both transports: {!serve} drives it over pipes inside a forked child;
    the supervisor's in-process loopback calls it directly.  The
    per-generation physics is [Dmc.sweep_generation] — the same function
    the single-process driver runs. *)

type config = {
  rank : int;
  ranks : int;
  seed : int;
  tau : float;
  target : int;  (** GLOBAL walker target (feedback is supervisor-side) *)
  n_domains : int;  (** worker domains inside this rank *)
  checkpoint : string option;
  checkpoint_keep : int;
  async_checkpoint : bool;
      (** overlap shard writes with the next generation's compute
          ({!Checkpoint.Async}); false = write-then-ack *)
  incarnation : int;  (** 0 = first spawn; respawns count up *)
  faults : (int * Fault.rank_fault) list;
      (** (generation, fault) injection plan for THIS rank.  The
          supervisor filters the plan to generations this incarnation
          has not yet reached, so a respawn cannot re-kill itself *)
}

val rank_seed : config -> int
(** Disjoint deterministic seed block for (rank, incarnation). *)

(** {1 Shards} *)

type shard

val create :
  factory:(int -> Engine_api.t) ->
  init:(float * Walker.t list) option ->
  config ->
  shard
(** A shard with this incarnation's runner pool and RNG seed block.
    [init = Some (e_trial, walkers)] restores walkers (respawn, resume);
    [None] starts empty and waits for an [Init] frame. *)

val shutdown_shard : shard -> unit
(** Join any in-flight background checkpoint write, then stop the
    runner pool. *)

val pop : shard -> Population.t
val move_totals : shard -> int * int
(** Lifetime (accepted, proposed) move totals. *)

val set_move_totals : shard -> acc:int -> prop:int -> unit
(** Overwrite the lifetime move totals (job-snapshot resume). *)

val rng_states : shard -> string * string
(** Bit-exact (master, pool) RNG stream states ({!Xoshiro.state_string})
    for the job-snapshot layer. *)

val set_rng_states : shard -> string * string -> unit
(** Restore streams captured by {!rng_states}, so a resumed shard
    continues the exact draw sequence.
    @raise Invalid_argument on malformed state strings. *)

val handle : shard -> Wire.msg -> Wire.msg list
(** The rank side of the protocol: apply one supervisor frame, return
    the replies in send order.  [Reduce] frames carry this shard's own
    [timer_us.*] deltas (per incarnation, so a refilled slot starts from
    zero); [Final] carries an empty trace.  [Heartbeat] is not produced
    here — it belongs to the transport, which sends it when a
    [Begin_gen] arrives, before calling [handle]. *)

(** {1 The worker process} *)

val serve :
  cfg:config ->
  factory:(int -> Engine_api.t) ->
  init:(float * Walker.t list) option ->
  fd_in:Unix.file_descr ->
  fd_out:Unix.file_descr ->
  unit
(** Run {!handle} over the pipes until [Finish].  Called inside the
    forked child, which owns its process: it arms and fires [cfg.faults],
    sends the real heartbeat, and adds the process-wide registry deltas
    to each [Reduce] and the span ring to [Final].  [init] is as for
    {!create}. *)
