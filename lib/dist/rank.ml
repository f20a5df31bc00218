open Oqmc_particle
open Oqmc_rng
open Oqmc_core
module Trace = Oqmc_obs.Trace
module Metrics = Oqmc_obs.Metrics
module Timers = Oqmc_containers.Timers

(* One worker rank of a supervised multi-rank DMC run.

   A rank owns a SHARD of the walker population and its own domain pool,
   and answers the supervisor's generation protocol: sweep + reweight on
   [Begin_gen], report the shard's estimator terms ([Reduce]), branch on
   command, and ship/absorb walker batches for load balance.

   [handle] is the whole rank side of that protocol: one frame in, the
   rank's replies out.  Both supervisor transports run it — [serve]
   inside a forked child reading frames from a pipe, the in-process
   loopback by direct call — so the rank logic exists once.

   The per-generation physics is [Dmc.sweep_generation] — the exact
   function the single-process driver runs — so a shard's trajectory is
   the single-process trajectory by construction.  All shard-local
   randomness derives from (seed, rank, incarnation): deterministic for
   a fault-free run, fresh after a respawn. *)

type config = {
  rank : int;
  ranks : int;
  seed : int;
  tau : float;
  target : int; (* GLOBAL walker target; feedback is supervisor-side *)
  n_domains : int; (* worker domains inside this rank *)
  checkpoint : string option;
  checkpoint_keep : int;
  async_checkpoint : bool;
      (* overlap shard writes with the next generation's compute
         (double-buffered [Checkpoint.Async]); false = write-then-ack *)
  incarnation : int; (* 0 = first spawn; respawns count up *)
  faults : (int * Fault.rank_fault) list;
      (* this rank's injection plan.  The supervisor filters the plan to
         generations the incarnation has not yet reached, so a respawned
         rank arms only its FUTURE faults and cannot re-kill itself. *)
}

(* Disjoint, deterministic seed blocks per (rank, incarnation). *)
let rank_seed cfg = cfg.seed + (7919 * (cfg.rank + 1)) + (104729 * cfg.incarnation)

type shard = {
  cfg : config;
  pop : Population.t;
  runner : Runner.t;
  master_rng : Xoshiro.t; (* branching *)
  rng_pool : Xoshiro.t; (* split per walker per generation *)
  mutable acc : int;
  mutable prop : int;
  mutable timers_base : (string * float * int) list;
      (* kernel-timer watermark: this incarnation's totals at its last
         [Reduce] *)
  mutable writer : Checkpoint.Async.t option;
      (* background shard writer, created on first async checkpoint *)
}

(* The factory sees globally distinct indices so every (rank, domain)
   pair gets an independent engine seed.  [init = Some (e_trial,
   walkers)] restores a shard (respawn or resume); [None] starts empty
   and waits for [Init].  RNGs come from the incarnation's seed block. *)
let create ~(factory : int -> Engine_api.t) ~init cfg =
  let runner =
    Runner.create ~n_domains:cfg.n_domains ~factory:(fun d ->
        factory ((cfg.rank * cfg.n_domains) + d))
  in
  let e_trial, walkers = Option.value init ~default:(0., []) in
  {
    cfg;
    pop = Population.create ~target:cfg.target ~e_trial walkers;
    runner;
    master_rng = Xoshiro.create (rank_seed cfg);
    rng_pool = Xoshiro.create (rank_seed cfg + 1);
    acc = 0;
    prop = 0;
    timers_base = [];
    writer = None;
  }

let drain_writer s =
  Option.iter (fun w -> ignore (Checkpoint.Async.drain w)) s.writer

let shutdown_shard s =
  drain_writer s;
  Runner.shutdown s.runner

let pop s = s.pop
let move_totals s = (s.acc, s.prop)

let set_move_totals s ~acc ~prop =
  s.acc <- acc;
  s.prop <- prop

(* Bit-exact RNG stream capture/restore: the job snapshot layer saves
   (master, pool) mid-run and a resumed shard continues the exact draw
   sequence — unlike the respawn path, which reseeds by incarnation. *)
let rng_states s =
  (Xoshiro.state_string s.master_rng, Xoshiro.state_string s.rng_pool)

let set_rng_states s (master, pool) =
  Xoshiro.restore s.master_rng (Xoshiro.of_state_string master);
  Xoshiro.restore s.rng_pool (Xoshiro.of_state_string pool)

(* Kernel-timer increments since this shard's last [Reduce], as
   [timer_us.<key>] counter deltas (µs, integral). *)
let timer_kvs s =
  let curr = Timers.snapshot (Runner.merged_timers s.runner) in
  let prev = s.timers_base in
  s.timers_base <- curr;
  List.filter_map
    (fun (k, sec, _) ->
      let before =
        match List.find_opt (fun (k', _, _) -> k' = k) prev with
        | Some (_, sec', _) -> sec'
        | None -> 0.
      in
      let d = sec -. before in
      if d > 0. then Some ('c', "timer_us." ^ k, Float.round (d *. 1e6))
      else None)
    curr

(* Write this shard's checkpoint for [gen]; the result is the ack. *)
let save_checkpoint s ~gen ~e_trial =
  match s.cfg.checkpoint with
  | None -> false
  | Some path -> (
      let keep = s.cfg.checkpoint_keep
      and walkers = Population.walkers s.pop in
      try
        if s.cfg.async_checkpoint then begin
          (* Render the shard image now, publish it from a background
             domain overlapped with the next generation's sweep.  The ack
             covers the render + the PREVIOUS write's landing;
             [Checkpoint.latest_complete] revalidates shards on restore,
             so an optimistic ack can delay recovery by one round but
             never corrupt it. *)
          let w =
            match s.writer with
            | Some w -> w
            | None ->
                let w = Checkpoint.Async.create () in
                s.writer <- Some w;
                w
          in
          Checkpoint.Async.save_generation w ~keep
            ~path:(Checkpoint.shard_path ~path ~rank:s.cfg.rank)
            ~gen ~e_trial walkers
        end
        else begin
          Checkpoint.save_shard ~keep ~path ~rank:s.cfg.rank ~gen ~e_trial
            walkers;
          true
        end
      with Sys_error _ | Checkpoint.Corrupt _ -> false)

let handle s msg =
  let reduce ~gen (wsum, esum) =
    Wire.Reduce
      {
        gen;
        wsum;
        esum;
        acc = s.acc;
        prop = s.prop;
        n = Population.size s.pop;
        telemetry = timer_kvs s;
      }
  in
  match msg with
  | Wire.Init { count } ->
      (* First spawn: build the initial sub-ensemble and report its
         (Σ1, ΣE_L) so the supervisor can form the global starting trial
         energy. *)
      let e0 = Runner.engine s.runner 0 in
      let n = e0.Engine_api.n_electrons in
      Population.absorb s.pop
        (List.init count (fun _ ->
             let w = Walker.create n in
             e0.Engine_api.randomize s.master_rng;
             w.Walker.e_local <- e0.Engine_api.measure ();
             e0.Engine_api.register_walker w;
             w));
      [
        reduce ~gen:0
          (List.fold_left
             (fun (ws, es) w -> (ws +. 1., es +. w.Walker.e_local))
             (0., 0.) (Population.walkers s.pop));
      ]
  | Wire.Begin_gen { gen; e_trial } ->
      (* One generation of shard physics: sweep + reweight every walker
         against [e_trial], then report the weighted estimator terms. *)
      let sums =
        Trace.with_span ~args:[ ("gen", string_of_int gen) ] "rank.generation"
        @@ fun () ->
        let acc, prop =
          Dmc.sweep_generation s.runner s.pop
            ~next_rng:(fun () -> Xoshiro.split s.rng_pool)
            ~gen ~tau:s.cfg.tau ~e_trial
        in
        s.acc <- s.acc + acc;
        s.prop <- s.prop + prop;
        Population.weighted_energy_sums s.pop
      in
      [ reduce ~gen sums ]
  | Wire.Branch { gen } ->
      Population.branch s.pop s.master_rng;
      [ Wire.Count { gen; n = Population.size s.pop } ]
  | Wire.Give { gen; count } ->
      [ Wire.Walkers { gen; walkers = Population.give s.pop count } ]
  | Wire.Walkers { walkers; _ } ->
      Population.absorb s.pop walkers;
      []
  | Wire.Checkpoint_cmd { gen; e_trial } ->
      [ Wire.Ack { gen; ok = save_checkpoint s ~gen ~e_trial } ]
  | Wire.Join { gen; _ } ->
      (* Mid-run membership: live as of [gen]; walkers arrive through
         the rebalancing relays that follow the ack. *)
      [ Wire.Ack { gen; ok = true } ]
  | Wire.Drain { gen } ->
      (* Graceful leave: ship the WHOLE shard (order preserved), then
         confirm the drain; the supervisor finishes us. *)
      drain_writer s;
      let ws = Population.drain s.pop in
      [
        Wire.Walkers { gen; walkers = ws };
        Wire.Leave { gen; count = List.length ws };
      ]
  | Wire.Finish ->
      drain_writer s;
      [
        Wire.Final
          {
            acc = s.acc;
            prop = s.prop;
            walkers = Population.walkers s.pop;
            trace = "";
          };
      ]
  | _ -> [] (* ignore unexpected frames; the supervisor drives *)

(* ---------- the worker process ---------- *)

(* Serve the protocol over pipes until [Finish].  Runs inside the forked
   child, which owns its process: this is where faults are armed and
   fired, the real heartbeat is sent, and the process-wide metric deltas
   and span ring ride along on [Reduce] and [Final]. *)
let serve ~cfg ~(factory : int -> Engine_api.t) ~init ~fd_in ~fd_out =
  Fault.reset ();
  (* The fork inherits the parent's span ring and metric registry: wipe
     the ring and diff metrics against a serve-entry baseline so this
     rank only ever reports its OWN activity.  [set_rank] stamps every
     span this process emits with its rank id (the trace pid). *)
  Trace.clear ();
  Trace.set_rank cfg.rank;
  let metrics_base = ref (Metrics.snapshot ()) in
  let registry_kvs () =
    let curr = Metrics.snapshot () in
    let kvs = Metrics.wire_kvs (Metrics.diff ~prev:!metrics_base curr) in
    metrics_base := curr;
    List.map (fun kv -> Metrics.(kv.kind, kv.key, kv.value)) kvs
  in
  List.iter (fun (gen, f) -> Fault.arm_rank_fault ~gen f) cfg.faults;
  let shard = create ~factory ~init cfg in
  let send m =
    Wire.send fd_out
      (match m with
      | Wire.Reduce r ->
          Wire.Reduce { r with telemetry = registry_kvs () @ r.telemetry }
      | Wire.Final f when Trace.enabled () ->
          Wire.Final { f with trace = Trace.serialize () }
      | m -> m)
  in
  let fire_faults ~gen =
    match Fault.rank_fault_due ~gen with
    | Some Fault.Rank_kill -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | Some (Fault.Rank_stall s) -> Unix.sleepf s
    | Some Fault.Rank_garbage -> Wire.send_corrupt fd_out
    | Some (Fault.Rank_disk_full times) ->
        (* Observable in the merged telemetry: the counter delta ships
           with this generation's Reduce frame. *)
        Metrics.inc (Metrics.counter "chaos.disk_full");
        Fault.arm_io_failure Fault.Checkpoint_write ~times
    | None -> ()
  in
  send (Wire.Hello { rank = cfg.rank; pid = Unix.getpid () });
  let rec loop () =
    let msg = Wire.recv fd_in in
    (match msg with
    | Wire.Begin_gen { gen; _ } ->
        (* Heartbeat first: it marks the start of the generation's work,
           so the supervisor's RTT EWMA tracks the healthy round-trip
           and injected stalls (slow work) land where real slowness
           would — between the heartbeat and the Reduce. *)
        send (Wire.Heartbeat { gen });
        fire_faults ~gen
    | _ -> ());
    List.iter send (handle shard msg);
    match msg with Wire.Finish -> () | _ -> loop ()
  in
  loop ();
  shutdown_shard shard
