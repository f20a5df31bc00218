open Oqmc_particle
open Oqmc_core
module Trace = Oqmc_obs.Trace
module Metrics = Oqmc_obs.Metrics
module Telemetry = Oqmc_obs.Telemetry
module Progress = Oqmc_obs.Progress
module Ledger = Oqmc_obs.Ledger
module Flightrec = Oqmc_obs.Flightrec
module Timers = Oqmc_containers.Timers

(* Supervised multi-rank DMC execution: ONE generation coordinator
   ([coordinate]) over a small [transport] interface, with two
   transports.

   The coordinator drives every member rank through the generation
   protocol (Wire):

     Begin_gen → (Heartbeat, Reduce) → Branch → Count
       → Give/Walkers relays (real load-balance exchange)
       → Checkpoint_cmd/Ack rounds → … → Finish/Final

   and owns everything above the frames: membership, slot refill,
   exchange planning, the ascending-rank reduction, checkpoint rounds,
   recovery, telemetry and status.  The rank side of every frame is
   [Rank.handle].  The transports:

   - [pipes] forks one Unix process per rank (real fault isolation: a
     segfault, OOM kill or poisoned domain takes down ONE rank) and
     speaks Wire frames over pipes.  [run] and [run_job ~local:false].
   - [loopback] keeps [Rank.shard]s in this process, calls
     [Rank.handle] directly and queues the replies.  [run_local] and
     [run_job ~local:true].  It never arms fault injection, sends no
     real heartbeat (the frame is queued before the work, so the
     measured RTT is ~0) and runs the shards one after another; it is
     the only transport that captures and restores job snapshots,
     because RNG states and move totals live in the shards.

   Both transports run the same coordinator over the same rank handler,
   so a fault-free [run] is bit-identical to [run_local] by
   construction, with or without a membership plan.

   The rank set is ELASTIC: the membership plan can grow the set
   mid-run (spawn + [Join] + rebalance through the exchange relays) and
   retire ranks gracefully ([Drain] → the whole shard ships to the
   survivors → Finish).  Slots lost to unrecoverable failures are
   refillable by later joins, so degraded mode is reversible.

   Generations are deadline-budgeted rather than hard-lockstep: phase 2
   collects heartbeat/reduce frames in ARRIVAL order (folding the float
   reduction in ascending rank order, so the trajectory does not depend
   on arrival order), and a rank that blows its soft deadline —
   [gen_deadline_ms] plus three heartbeat-RTT EWMAs of slack — is
   handled per [straggler_policy]: warn (count it), steal (shed a
   quarter of its walkers to the fastest rank), or quarantine (three
   consecutive misses → treated as a stall and respawned).

   Robustness machinery, exercised deterministically by the Fault rank
   injectors and the [Chaos] schedule planner:

   - every read of a rank carries the heartbeat deadline: a stalled rank
     surfaces as [Wire.Timeout], a crashed one as [Wire.Closed], a
     corrupted stream as [Wire.Garbage];
   - a failed rank is killed and respawned with exponential backoff
     from its newest *valid* checkpoint shard
     ([Checkpoint.load_latest_shard]) — or from fresh walkers when it
     never checkpointed — rejoining at the next generation;
   - after [max_respawn] respawns the rank is declared unrecoverable:
     its last shard is salvaged and redistributed over the survivors,
     its slot is marked vacant (a later Join refills it with a fresh
     incarnation), and the run continues degraded.  The mixed estimator
     Σw·E_L / Σw is self-normalizing, so dropping a rank's terms from a
     generation leaves the energy unbiased (see docs/ROBUSTNESS.md);
   - SIGTERM/SIGINT raise [Interrupted] so the normal unwind path runs:
     members torn down, telemetry/trace sinks flushed and closed — the
     JSONL tail stays parseable even on abort.

   Over pipes the supervisor process itself never spawns OCaml domains,
   so forking stays safe at any point of the run; callers must not hold
   live domains of their own across a [run] call.  (Rank processes DO
   spawn domains — including the [Checkpoint.Async] writer — but only
   after the fork.) *)

type straggler_policy = Warn | Steal | Quarantine

let straggler_policy_of_string = function
  | "warn" -> Some Warn
  | "steal" -> Some Steal
  | "quarantine" -> Some Quarantine
  | _ -> None

let straggler_policy_name = function
  | Warn -> "warn"
  | Steal -> "steal"
  | Quarantine -> "quarantine"

(* How the exchange planner splits walkers: [Count_level] is the
   historical even split (bit-identical default); [Load_level] levels
   throughput instead, weighting each rank by its ledger speed. *)
type plan_mode = Count_level | Load_level

let plan_mode_of_string = function
  | "count" -> Some Count_level
  | "load" -> Some Load_level
  | _ -> None

let plan_mode_name = function Count_level -> "count" | Load_level -> "load"

(* Elastic membership plan entry: at the END of generation [gen] (first
   element of the pair), grow the rank set by one ([Join]) or retire a
   specific rank gracefully ([Leave r]). *)
type member_event = Join | Leave of int

type params = {
  ranks : int;
  target_walkers : int; (* global population target *)
  warmup : int;
  generations : int;
  tau : float;
  seed : int;
  n_domains : int; (* per rank *)
  feedback : float;
  heartbeat_s : float; (* per-message deadline on every rank read *)
  max_respawn : int; (* respawns per rank before it is abandoned *)
  respawn_backoff : float; (* base seconds, doubled per respawn *)
  checkpoint : string option;
  checkpoint_every : int;
  checkpoint_keep : int;
  restore : bool; (* resume from the newest complete shard generation *)
  faults : (int * int * Fault.rank_fault) list; (* rank, gen, fault *)
  trace : string option; (* Chrome trace_event JSON output path *)
  telemetry : string option; (* per-generation JSONL output path *)
  telemetry_every : int;
  progress : bool; (* live one-line progress on stderr *)
  elastic : bool; (* enable membership events + async checkpoints *)
  gen_deadline_ms : int; (* soft per-generation budget; 0 = lockstep *)
  straggler_policy : straggler_policy;
  membership : (int * member_event) list; (* (gen, event), any order *)
  plan : plan_mode; (* exchange planning: count levelling | load levelling *)
  flightrec : string option; (* postmortem dump path for abort paths *)
  status : string option; (* live status-snapshot file (atomic rename) *)
  on_window : (int -> unit) option; (* ledger-window boundary callback *)
}

let default_params =
  {
    ranks = 4;
    target_walkers = 16;
    warmup = 20;
    generations = 100;
    tau = 0.01;
    seed = 11;
    n_domains = 1;
    feedback = 1.;
    heartbeat_s = 5.;
    max_respawn = 2;
    respawn_backoff = 0.05;
    checkpoint = None;
    checkpoint_every = 0;
    checkpoint_keep = 3;
    restore = false;
    faults = [];
    trace = None;
    telemetry = None;
    telemetry_every = 1;
    progress = false;
    elastic = false;
    gen_deadline_ms = 0;
    straggler_policy = Warn;
    membership = [];
    plan = Count_level;
    flightrec = None;
    status = None;
    on_window = None;
  }

(* One membership transition as it happened: generation, "join"/"leave",
   live ranks after, total walkers before/after.  before = after is the
   conservation invariant the chaos soak asserts. *)
type member_record = {
  m_gen : int;
  m_kind : string;
  m_rank : int;
  m_live : int;
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
  comm_messages : int;
  comm_bytes : int;
  respawns : int;
  heartbeat_timeouts : int;
  garbage_frames : int;
  crashes : int;
  ranks_failed : int list; (* abandonment events, ascending *)
  live_ranks : int; (* live member count at the end of the run *)
  degraded_generations : int;
  joins : int;
  leaves : int;
  stragglers : int;
  steals : int;
  membership_skipped : int; (* events that could not be applied *)
  membership_log : member_record list; (* chronological *)
  gen_p50_s : float; (* per-generation wall-time percentiles *)
  gen_p99_s : float;
  final_walkers : Walker.t list;
  final_e_trial : float;
}

exception All_ranks_lost
exception Interrupted of int

(* What a [run_job] call produced: the usual result plus how the job
   ended.  [drained = true] means the [stop] poll ended it early at a
   generation boundary (deadline/shutdown), with the estimators covering
   the generations actually run; [resumed_from > 0] means the job
   continued bit-identically from a [Snapshot] of that generation
   instead of starting fresh. *)
type job_outcome = {
  job_result : result;
  gens_done : int; (* generations executed by THIS call *)
  drained : bool;
  resumed_from : int;
}

let validate p =
  if p.ranks < 1 then invalid_arg "Supervisor: ranks < 1";
  if p.target_walkers < p.ranks then
    invalid_arg "Supervisor: target_walkers < ranks";
  if p.heartbeat_s <= 0. then invalid_arg "Supervisor: heartbeat_s <= 0";
  if p.max_respawn < 0 then invalid_arg "Supervisor: max_respawn < 0";
  if p.gen_deadline_ms < 0 then invalid_arg "Supervisor: gen_deadline_ms < 0";
  if p.membership <> [] && not p.elastic then
    invalid_arg "Supervisor: membership plan requires elastic = true";
  List.iter
    (fun (g, ev) ->
      if g < 1 then invalid_arg "Supervisor: membership gen < 1";
      match ev with
      | Leave r when r < 0 -> invalid_arg "Supervisor: membership leave rank < 0"
      | _ -> ())
    p.membership

(* Split a [Chaos] schedule into the two supervisor inputs it feeds:
   the rank-fault plan and the membership plan. *)
let of_chaos schedule =
  let faults = Chaos.faults_of schedule in
  let membership =
    List.filter_map
      (fun (g, e) ->
        match e with
        | Chaos.Join -> Some (g, Join)
        | Chaos.Leave r -> Some (g, Leave r)
        | _ -> None)
      schedule
  in
  (faults, membership)

(* Ideal initial split of the global target over the ranks. *)
let shard_counts ~target ~ranks =
  let per = target / ranks and extra = target mod ranks in
  Array.init ranks (fun r -> per + if r < extra then 1 else 0)

(* [after] filters the fault plan to generations this incarnation has
   not yet reached, so a respawned (or slot-refilled) rank cannot
   re-fire the fault that killed its predecessor; the initial spawn
   passes [after = -1]. *)
let rank_config (p : params) ~rank ~incarnation ~after =
  {
    Rank.rank;
    ranks = p.ranks;
    seed = p.seed;
    tau = p.tau;
    target = p.target_walkers;
    n_domains = p.n_domains;
    checkpoint = p.checkpoint;
    checkpoint_keep = p.checkpoint_keep;
    async_checkpoint = p.elastic && p.gen_deadline_ms > 0;
    incarnation;
    faults =
      List.filter_map
        (fun (r, g, f) -> if r = rank && g > after then Some (g, f) else None)
        p.faults;
  }

(* ---------- observability plumbing ----------

   Enables tracing when a trace path is requested (forked ranks inherit
   the enabled flag, so this must happen BEFORE any fork), opens the
   JSONL sink and the live progress line, and hands back emit/update
   callbacks plus a [close] that flushes and exports everything.
   [close] is failure-isolated: a broken progress line or sink cannot
   keep the others from flushing, so the telemetry tail stays
   parseable on every abort path.  None of this touches the physics or
   the RNG streams. *)
let obs_setup (p : params) =
  if p.trace <> None && not (Trace.enabled ()) then Trace.enable ();
  let sink = Option.map Telemetry.create p.telemetry in
  let prog = if p.progress then Some (Progress.create ()) else None in
  let every = max 1 p.telemetry_every in
  let emit ~gen record =
    match sink with
    | Some s when gen mod every = 0 -> Telemetry.emit s record
    | _ -> ()
  in
  (* Unfiltered emit for sparse structural records (membership events):
     these must never be dropped by the telemetry_every decimation. *)
  let emit_event record =
    match sink with Some s -> Telemetry.emit s record | None -> ()
  in
  let update line =
    match prog with Some pr -> Progress.update pr line | None -> ()
  in
  let close () =
    (try match prog with Some pr -> Progress.finish pr | None -> ()
     with _ -> ());
    (try match sink with Some s -> Telemetry.close s | None -> ()
     with _ -> ());
    try match p.trace with Some path -> Trace.export ~path | None -> ()
    with _ -> ()
  in
  (emit, emit_event, update, close)

(* Route SIGTERM/SIGINT through the normal exception unwind so every
   [Fun.protect] finally — child reaping, sink flushing — runs on
   abort.  Returns the saved dispositions for [restore_signals]. *)
let install_signals () =
  List.filter_map
    (fun s ->
      match Sys.signal s (Sys.Signal_handle (fun s -> raise (Interrupted s))) with
      | old -> Some (s, old)
      | exception (Invalid_argument _ | Sys_error _) -> None)
    [ Sys.sigterm; Sys.sigint ]

let restore_signals saved =
  List.iter (fun (s, old) -> try Sys.set_signal s old with _ -> ()) saved

let membership_json (m : member_record) =
  Oqmc_obs.Jsonx.(
    Obj
      [
        ("event", Str m.m_kind);
        ("gen", Num (float_of_int m.m_gen));
        ("rank", Num (float_of_int m.m_rank));
        ("live_ranks", Num (float_of_int m.m_live));
        ("walkers_before", Num (float_of_int m.m_walkers_before));
        ("walkers_after", Num (float_of_int m.m_walkers_after));
      ])

(* Dump the flight-recorder ring to the configured postmortem path.
   Failures are swallowed — the recorder must never turn one abort into
   a different one. *)
let flight_dump (p : params) reason =
  match p.flightrec with
  | None -> ()
  | Some path -> ( try Flightrec.dump ~reason ~path () with _ -> ())

(* Live per-job status file: a small JSON snapshot written to a temp
   file and atomically renamed into place, throttled to ~4 Hz.  The
   serve daemon's Status endpoint reads (never writes) this file, so a
   crashed runner leaves its last consistent snapshot behind. *)
let status_writer (p : params) =
  match p.status with
  | None -> fun ~force:_ _ -> ()
  | Some path ->
      let last = ref 0. in
      fun ~force mk ->
        let now = Oqmc_containers.Timers.now () in
        if force || now -. !last >= 0.25 then begin
          last := now;
          try
            let tmp = path ^ ".tmp" in
            let oc = open_out tmp in
            output_string oc (Oqmc_obs.Jsonx.to_string (mk ()));
            output_char oc '\n';
            close_out oc;
            Sys.rename tmp path
          with Sys_error _ | Unix.Unix_error _ -> ()
        end

(* Sparse structural telemetry record carrying the per-rank ledger
   windows (emitted every ledger window, decimation-proof). *)
let ledger_event ~gen ledger =
  Oqmc_obs.Jsonx.(
    Obj
      [
        ("event", Str "ledger");
        ("gen", Num (float_of_int gen));
        ("ranks", Ledger.json ledger);
      ])

(* How often (in generations) the ledger windows are pushed to the
   JSONL sink — matches [Ledger.create]'s default window. *)
let ledger_emit_every = 16

(* Registry [audit.*] gauges — set by the driver's efficiency audit
   through the [on_window] hook — echoed verbatim into the status
   snapshot so a Status query surfaces live efficiency numbers. *)
let audit_json () =
  Oqmc_obs.Jsonx.Obj
    (List.filter_map
       (fun (name, v) ->
         match v with
         | Metrics.Gauge g
           when String.length name > 6 && String.sub name 0 6 = "audit." ->
             Some (name, Oqmc_obs.Jsonx.Num g)
         | _ -> None)
       (Metrics.snapshot ()))

let fire_window (p : params) gen =
  if gen mod ledger_emit_every = 0 then
    match p.on_window with
    | None -> ()
    | Some f -> ( try f gen with _ -> ())

(* Generation wall-time percentiles via the shared bucketed quantile
   estimator — the same estimator the ledger and Status views use, so
   every reported percentile carries the same semantics. *)
let wall_percentile gen_times q =
  match Metrics.quantile (Metrics.hview_of_values gen_times) q with
  | Some (estimate, _) -> estimate
  | None -> 0.

(* ---------- transports ----------

   The coordinator reaches its members only through these operations,
   naming each member by rank id.  [spawn] on the id of a member that is
   already down replaces it with the new incarnation; [kill] and
   [finish] are idempotent. *)
type transport = {
  spawn : Rank.config -> (float * Walker.t list) option -> unit;
      (* start a member (it greets with [Hello]); [Some (e_trial,
         walkers)] restores its shard *)
  send : int -> Wire.msg -> unit;
  recv : int -> timeout:float -> Wire.msg * float;
      (* the next frame and when it arrived.
         @raise Wire.Closed / Wire.Timeout / Wire.Garbage *)
  ready : int list -> timeout:float -> int list;
      (* the members with a frame waiting, within [timeout] seconds *)
  kill : int -> unit; (* tear a member down now *)
  finish : int -> unit; (* release a member that answered [Finish] *)
  close : unit -> unit; (* kill every member still up *)
}

(* ----- forked pipes ----- *)

type pipe = {
  pid : int;
  r_fd : Unix.file_descr; (* supervisor reads rank output here *)
  w_fd : Unix.file_descr; (* supervisor writes commands here *)
  mutable up : bool; (* pipe ends still open *)
}

let startup_timeout (p : params) = Float.max 30. (10. *. p.heartbeat_s)

(* Wait for [pid] without losing the reap to a signal ([EINTR] restarts
   the wait) or double-reaping ([ECHILD] means some earlier path already
   collected the child — fine either way). *)
let rec waitpid_robust pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_robust pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let reap pid =
  (try Unix.kill pid Sys.sigkill
   with Unix.Unix_error ((Unix.ESRCH | Unix.EPERM), _, _) -> ());
  waitpid_robust pid

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Fork one rank.  [all_fds] are every other live pipe end: the child
   must close them, or a crashed sibling's EOF would never surface.
   The child builds its engines, runs the protocol and _exits without
   touching the parent's buffered channels. *)
let fork_rank ~(factory : int -> Engine_api.t) ~cfg ~init ~all_fds =
  let sup_r, rank_w = Unix.pipe ~cloexec:false () in
  let rank_r, sup_w = Unix.pipe ~cloexec:false () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      close_fd sup_r;
      close_fd sup_w;
      List.iter close_fd all_fds;
      let code =
        try
          Rank.serve ~cfg ~factory ~init ~fd_in:rank_r ~fd_out:rank_w;
          0
        with _ -> 3
      in
      Unix._exit code
  | pid ->
      close_fd rank_r;
      close_fd rank_w;
      { pid; r_fd = sup_r; w_fd = sup_w; up = true }

(* One forked process per member, framed [Wire] over a pipe pair.  A
   crash surfaces as EOF ([Wire.Closed]), confirmed by the reap. *)
let pipes ~factory () =
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let procs : (int, pipe) Hashtbl.t = Hashtbl.create 16 in
  let get id = Hashtbl.find procs id in
  (* Every pipe end still OPEN in the supervisor: the set a fresh child
     must close.  Torn-down fds must be excluded — their numbers get
     reused by the very pipes the new child is being given. *)
  let all_fds () =
    Hashtbl.fold
      (fun _ s acc -> if s.up then s.r_fd :: s.w_fd :: acc else acc)
      procs []
  in
  let down collect id =
    match Hashtbl.find_opt procs id with
    | Some s when s.up ->
        close_fd s.r_fd;
        close_fd s.w_fd;
        s.up <- false;
        collect s.pid
    | _ -> ()
  in
  {
    spawn =
      (fun cfg init ->
        Hashtbl.replace procs cfg.Rank.rank
          (fork_rank ~factory ~cfg ~init ~all_fds:(all_fds ())));
    send = (fun id m -> Wire.send (get id).w_fd m);
    recv =
      (fun id ~timeout ->
        let m = Wire.recv ~timeout (get id).r_fd in
        (m, Timers.now ()));
    ready =
      (fun ids ~timeout ->
        let fds = List.map (fun id -> (get id).r_fd) ids in
        match Unix.select fds [] [] timeout with
        | rs, _, _ -> List.filter (fun id -> List.mem (get id).r_fd rs) ids
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> []);
    kill = down reap;
    finish = down waitpid_robust;
    close =
      (fun () ->
        Hashtbl.iter (fun id _ -> down reap id) procs;
        Sys.set_signal Sys.sigpipe old_sigpipe);
  }

(* ----- in-process loopback ----- *)

type slot = {
  shard : Rank.shard;
  inbox : (Wire.msg * float) Queue.t; (* replies, stamped when posted *)
  mutable live : bool;
}

(* Shards in this process: [send] runs [Rank.handle] at once and queues
   its replies, each stamped when posted, so a shard's Begin_gen→Reduce
   span is its own sweep even though the shards run one after another.
   Faults in [cfg.faults] are never armed.  [resume] (snapshot rank
   states) restores each listed rank's RNG streams and move totals at
   its first spawn.  Also returns the live shards, ascending by rank,
   for snapshot capture. *)
let loopback ~factory ~(resume : Snapshot.rank_state list) =
  let slots : (int, slot) Hashtbl.t = Hashtbl.create 16 in
  let pending = ref resume in
  let post s m = Queue.push (m, Timers.now ()) s.inbox in
  let down id =
    match Hashtbl.find_opt slots id with
    | Some s when s.live ->
        s.live <- false;
        Rank.shutdown_shard s.shard
    | _ -> ()
  in
  let tp =
    {
      spawn =
        (fun cfg init ->
          let shard = Rank.create ~factory ~init cfg in
          let mine, rest =
            List.partition
              (fun rs -> rs.Snapshot.r_rank = cfg.Rank.rank)
              !pending
          in
          pending := rest;
          List.iter
            (fun (rs : Snapshot.rank_state) ->
              Rank.set_rng_states shard (rs.r_master, rs.r_pool);
              Rank.set_move_totals shard ~acc:rs.r_acc ~prop:rs.r_prop)
            mine;
          let s = { shard; inbox = Queue.create (); live = true } in
          Hashtbl.replace slots cfg.Rank.rank s;
          post s (Wire.Hello { rank = cfg.Rank.rank; pid = Unix.getpid () }));
      send =
        (fun id m ->
          let s = Hashtbl.find slots id in
          if not s.live then raise Wire.Closed;
          (match m with
          | Wire.Begin_gen { gen; _ } -> post s (Wire.Heartbeat { gen })
          | _ -> ());
          List.iter (post s) (Rank.handle s.shard m));
      recv =
        (fun id ~timeout:_ ->
          let s = Hashtbl.find slots id in
          match Queue.take_opt s.inbox with
          | Some frame -> frame
          | None -> raise (if s.live then Wire.Timeout else Wire.Closed));
      ready =
        (fun ids ~timeout:_ ->
          List.filter
            (fun id -> not (Queue.is_empty (Hashtbl.find slots id).inbox))
            ids);
      kill = down;
      finish = down;
      close = (fun () -> Hashtbl.iter (fun id _ -> down id) slots);
    }
  in
  let shards () =
    Hashtbl.fold
      (fun id s acc -> if s.live then (id, s.shard) :: acc else acc)
      slots []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (tp, shards)

(* ---------- the generation coordinator ---------- *)

(* The coordinator's view of one member. *)
type member = {
  mutable dead : bool; (* permanently abandoned *)
  incarnation : int;
  mutable count : int; (* last known shard size *)
  mutable begin_t : float; (* when this gen's Begin_gen was sent *)
  mutable rtt_ewma : float; (* smoothed heartbeat RTT, seconds *)
  mutable straggles : int; (* consecutive soft-deadline misses *)
}

(* Why the rank failed: drives the failure counters. *)
type failure = Crash | Stall | Corrupt_stream

(* Run one job over the transport [transport ()] (created after the
   observability sinks, torn down on every exit path).  [resume] starts
   from a job snapshot instead of fresh walkers or checkpoint shards;
   [on_boundary] sees the run state at every generation boundary
   ([last] at the drain point and the final generation). *)
let coordinate ~transport ~handle_signals ~stop ?resume ?on_boundary
    (p : params) : job_outcome =
  validate p;
  (* Observability must attach BEFORE any fork so children inherit the
     tracing-enabled flag; spans recorded in this process carry pid -1,
     a forked rank's ring is ingested under its rank id at Final time. *)
  let emit, emit_event, update_progress, obs_close = obs_setup p in
  if Trace.enabled () then Trace.set_rank (-1);
  let tp = transport () in
  let saved_signals = if handle_signals then install_signals () else [] in
  let cleanup () =
    tp.close ();
    restore_signals saved_signals;
    obs_close ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  try
  let hb = p.heartbeat_s in
  (* The member table: rank id → member.  Abandoned members stay in the
     table (dead = true) until their slot is refilled by a Join, which
     overwrites the entry with a fresh incarnation. *)
  let members : (int, member) Hashtbl.t = Hashtbl.create 16 in
  let vacant = ref [] and next_id = ref p.ranks in
  let incarnations : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let spawn cfg init =
    tp.spawn cfg init;
    Hashtbl.replace members cfg.Rank.rank
      {
        dead = false;
        incarnation = cfg.Rank.incarnation;
        count = 0;
        begin_t = 0.;
        rtt_ewma = 0.;
        straggles = 0;
      }
  in
  let respawns = ref 0 in
  let hb_timeouts = ref 0 and garbage_frames = ref 0 and crashes = ref 0 in
  let ranks_failed = ref [] in
  let degraded_generations = ref 0 in
  let joins = ref 0 and leaves = ref 0 in
  let stragglers = ref 0 and steals = ref 0 in
  let skipped = ref 0 in
  let membership_log = ref [] in
  let gen_times = ref [] in
  let acc_left = ref 0 and prop_left = ref 0 in
  let energy_series = Stats.make_series () in
  (* Per-rank proposed-move watermarks for the ledger ([Reduce] carries
     cumulative totals; a respawn resets them, the delta clamps to 0),
     and their sums for the per-generation acceptance. *)
  let rank_prop : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let prev_acc = ref 0 and prev_prop = ref 0 in
  (* -------- where the run starts -------- *)
  (* A job snapshot restores the complete running state; a checkpoint
     restore brings back the newest complete shard set's walkers only;
     otherwise every rank builds fresh walkers on [Init]. *)
  let pop_series = ref [] and samples = ref 0 in
  let comm_messages = ref 0 and comm_bytes = ref 0 in
  let start_gen, starts, e_trial0 =
    match resume with
    | Some ((st : Snapshot.state), shards) ->
        Array.iter (Stats.append energy_series) st.energy;
        pop_series := List.rev (Array.to_list st.pops);
        samples := st.samples;
        comm_messages := st.comm_messages;
        comm_bytes := st.comm_bytes;
        List.iter
          (fun (rs : Snapshot.rank_state) ->
            Hashtbl.replace rank_prop rs.r_rank rs.r_prop;
            prev_acc := !prev_acc + rs.r_acc;
            prev_prop := !prev_prop + rs.r_prop)
          st.rank_states;
        ( st.gen,
          List.map
            (fun (rs : Snapshot.rank_state) ->
              (rs.r_rank, Some (st.e_trial, List.assoc rs.r_rank shards)))
            st.rank_states,
          Some st.e_trial )
    | None ->
        let restored =
          match p.checkpoint with
          | Some path when p.restore ->
              Option.map
                (fun gen ->
                  Array.init p.ranks (fun r ->
                      Checkpoint.load_shard ~path ~rank:r ~gen))
                (Checkpoint.latest_complete ~path ~ranks:p.ranks)
          | _ -> None
        in
        ( 0,
          List.init p.ranks (fun r ->
              (r, Option.map (fun shards -> shards.(r)) restored)),
          Option.map (fun shards -> fst shards.(0)) restored )
  in
  List.iter
    (fun (r, init) ->
      spawn (rank_config p ~rank:r ~incarnation:0 ~after:(-1)) init)
    starts;
  let find r = Hashtbl.find_opt members r in
  let member r = Hashtbl.find members r in
  let live () =
    Hashtbl.fold (fun id s acc -> if s.dead then acc else id :: acc) members []
    |> List.sort compare
  in
  (* Record a failure and tear the member down; respawn happens at the
     end of the generation so surviving ranks stay in lockstep. *)
  let failed_this_gen = ref [] in
  let cur_gen = ref 0 in
  let fail_rank r why =
    match find r with
    | None -> ()
    | Some s ->
        if (not s.dead) && not (List.mem r !failed_this_gen) then begin
          let reason =
            match why with
            | Crash -> incr crashes; "crash"
            | Stall -> incr hb_timeouts; "stall"
            | Corrupt_stream -> incr garbage_frames; "garbage"
          in
          Metrics.inc (Metrics.counter ("sup.rank_failures." ^ reason));
          Trace.instant
            ~args:[ ("rank", string_of_int r); ("reason", reason) ]
            "sup.rank_failed";
          Flightrec.record "rank_failed"
            Oqmc_obs.Jsonx.(
              Obj
                [
                  ("rank", Num (float_of_int r));
                  ("reason", Str reason);
                  ("gen", Num (float_of_int !cur_gen));
                  ("incarnation", Num (float_of_int s.incarnation));
                ]);
          flight_dump p ("rank_failed:" ^ reason);
          tp.kill r;
          failed_this_gen := r :: !failed_this_gen
        end
  in
  let ok_rank r =
    match find r with
    | Some s -> (not s.dead) && not (List.mem r !failed_this_gen)
    | None -> false
  in
  (* Run [f] against rank [r], converting wire failures into rank
     failures.  Returns [None] when the rank just failed. *)
  let guard r f =
    if not (ok_rank r) then None
    else
      match f () with
      | v -> Some v
      | exception Wire.Closed -> fail_rank r Crash; None
      | exception Wire.Timeout -> fail_rank r Stall; None
      | exception Wire.Garbage _ -> fail_rank r Corrupt_stream; None
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
          fail_rank r Crash; None
  in
  let send r m = ignore (guard r (fun () -> tp.send r m)) in
  let recv r ~timeout = fst (tp.recv r ~timeout) in
  let recv_expect ?(timeout = hb) r match_ =
    guard r (fun () ->
        match match_ (recv r ~timeout) with
        | Some v -> v
        | None -> raise (Wire.Garbage "unexpected frame"))
  in
  (* -------- handshake: Hello (+ Init reduce on fresh spawns) -------- *)
  let startup = startup_timeout p in
  let await_hello r =
    recv_expect ~timeout:startup r (function
      | Wire.Hello _ -> Some ()
      | _ -> None)
  in
  let await_init r =
    recv_expect ~timeout:startup r (function
      | Wire.Reduce { gen = 0; wsum; esum; n; _ } -> Some (wsum, esum, n)
      | _ -> None)
  in
  List.iter (fun (r, _) -> ignore (await_hello r)) starts;
  let counts = shard_counts ~target:p.target_walkers ~ranks:p.ranks in
  List.iter
    (fun (r, init) ->
      match init with
      | Some (_, ws) -> (member r).count <- List.length ws
      | None -> send r (Wire.Init { count = counts.(r) }))
    starts;
  (* Global starting trial energy from the per-rank initial sums,
     reduced in ascending rank order. *)
  let w0 = ref 0. and e0 = ref 0. in
  List.iter
    (fun (r, init) ->
      if Option.is_none init then
        match await_init r with
        | Some (w, e, n) ->
            w0 := !w0 +. w;
            e0 := !e0 +. e;
            (member r).count <- n
        | None -> ())
    starts;
  let e_trial =
    ref
      (match e_trial0 with
      | Some e -> e
      | None -> if !w0 > 0. then !e0 /. !w0 else 0.)
  in
  if !failed_this_gen <> [] then
    (* A rank that cannot even start is not worth respawning: fail fast
       rather than mask a broken factory. *)
    failwith "Supervisor: rank startup failed";
  let t0 = Timers.now () in
  let total_gens = p.warmup + p.generations in
  let total_walkers () =
    List.fold_left
      (fun a r -> if ok_rank r then a + (member r).count else a)
      0 (live ())
  in
  (* Heartbeat RTT is measured supervisor-side — Begin_gen send to
     Heartbeat receipt — so the wire protocol needs no clock exchange. *)
  let m_rtt = Metrics.histogram "sup.heartbeat_rtt_s" in
  let m_gen_s = Metrics.histogram "sup.generation_s" in
  let ledger = Ledger.create () in
  let write_status = status_writer p in
  let rtt_max = ref 0. in
  (* Phase 2 collector: heartbeat + reduce frames accepted in ARRIVAL
     order, each rank on its own hard deadline (heartbeat_s per frame,
     as in lockstep).  Fast ranks are never blocked behind a stalled
     sibling's timeout, while the caller folds the results in ascending
     rank order, so the float reduction does not depend on arrival
     order.  Frames already waiting are taken before any deadline is
     judged.  Returns rank → (wsum, esum, acc, prop, n, kvs, arrival). *)
  let collect_phase2 ~gen participants =
    let stage : (int, [ `Hb | `Reduce ]) Hashtbl.t = Hashtbl.create 8 in
    let deadline : (int, float) Hashtbl.t = Hashtbl.create 8 in
    let results = Hashtbl.create 8 in
    List.iter
      (fun r ->
        Hashtbl.replace stage r `Hb;
        Hashtbl.replace deadline r ((member r).begin_t +. hb))
      participants;
    let pending () =
      List.filter
        (fun r -> ok_rank r && not (Hashtbl.mem results r))
        participants
    in
    let accept r m arrival =
      let s = member r in
      match (Hashtbl.find stage r, m) with
      | `Hb, Wire.Heartbeat _ ->
          let rtt = arrival -. s.begin_t in
          Metrics.observe m_rtt rtt;
          rtt_max := Float.max !rtt_max rtt;
          s.rtt_ewma <-
            (if s.rtt_ewma = 0. then rtt
             else (0.8 *. s.rtt_ewma) +. (0.2 *. rtt));
          Trace.instant
            ~args:
              [
                ("rank", string_of_int r);
                ("rtt_us", string_of_int (int_of_float (rtt *. 1e6)));
              ]
            "sup.heartbeat";
          Hashtbl.replace stage r `Reduce;
          Hashtbl.replace deadline r (Timers.now () +. hb)
      | `Reduce, Wire.Reduce { gen = g; wsum; esum; acc; prop; n; telemetry }
        when g = gen ->
          Hashtbl.replace results r
            (wsum, esum, acc, prop, n, telemetry, arrival)
      | _ -> fail_rank r Corrupt_stream
    in
    let rec loop () =
      match pending () with
      | [] -> ()
      | ps ->
          let t = Timers.now () in
          let wait =
            List.fold_left
              (fun a r -> Float.min a (Hashtbl.find deadline r -. t))
              hb ps
            |> Float.max 0.005
          in
          let readable = tp.ready ps ~timeout:wait in
          List.iter
            (fun r ->
              if List.mem r readable then
                match guard r (fun () -> tp.recv r ~timeout:hb) with
                | Some (m, arrival) -> accept r m arrival
                | None -> ())
            ps;
          let t = Timers.now () in
          List.iter
            (fun r -> if t > Hashtbl.find deadline r then fail_rank r Stall)
            (pending ());
          loop ()
    in
    loop ();
    results
  in
  (* Relay one walker batch rank→rank through the supervisor, counting
     the communication volume; if the destination dies mid-relay the
     batch is rerouted to the first other healthy rank in [others]
     rather than lost. *)
  let deliver ~gen dst walkers =
    guard dst (fun () ->
        tp.send dst (Wire.Walkers { gen; walkers });
        (member dst).count <- (member dst).count + List.length walkers)
  in
  let count_comm walkers =
    List.iter
      (fun w ->
        incr comm_messages;
        comm_bytes := !comm_bytes + Walker.message_bytes w)
      walkers
  in
  let relay_move ~gen rs rd count ~others =
    match
      guard rs (fun () ->
          tp.send rs (Wire.Give { gen; count });
          match recv rs ~timeout:hb with
          | Wire.Walkers { walkers; _ } -> walkers
          | _ -> raise (Wire.Garbage "expected walker batch"))
    with
    | None -> ()
    | Some walkers -> (
        (member rs).count <- (member rs).count - List.length walkers;
        count_comm walkers;
        match deliver ~gen rd walkers with
        | Some () -> ()
        | None -> (
            match List.find_opt (fun r -> ok_rank r && r <> rd) others with
            | Some alt -> ignore (deliver ~gen alt walkers)
            | None -> ()))
  in
  (* Full load-balance exchange over [ids] (healthy subset), relayed in
     deterministic [Population.plan] order — shared by phase 4, the
     post-join rebalance and walker stealing. *)
  let relay_exchange ~gen ids =
    let ids = Array.of_list (List.filter ok_rank ids) in
    let plan_counts = Array.map (fun r -> (member r).count) ids in
    let weights =
      match p.plan with
      | Count_level -> None
      | Load_level -> Ledger.speed_weights ledger (Array.to_list ids)
    in
    let moves = Population.plan ?weights plan_counts in
    List.iter
      (fun { Population.src; dst; count } ->
        Ledger.add_exchange ledger ~rank:ids.(src) ~walkers:count;
        Ledger.add_exchange ledger ~rank:ids.(dst) ~walkers:count;
        relay_move ~gen ids.(src) ids.(dst) count
          ~others:(Array.to_list ids))
      moves
  in
  let ingest_trace r trace =
    (* Merge a forked rank's span ring under its rank id, so the exported
       timeline shows every process on its own track. *)
    if trace <> "" then try Trace.ingest ~pid:r trace with Trace.Malformed -> ()
  in
  let vacate r ~incarnation =
    vacant := r :: !vacant;
    Hashtbl.replace incarnations r (incarnation + 1)
  in
  let log_member ~gen kind r ~before =
    let m =
      {
        m_gen = gen;
        m_kind = kind;
        m_rank = r;
        m_live = List.length (List.filter ok_rank (live ()));
        m_walkers_before = before;
        m_walkers_after = total_walkers ();
      }
    in
    membership_log := m :: !membership_log;
    emit_event (membership_json m)
  in
  (* -------- elastic membership -------- *)
  let do_join ~gen =
    let before = total_walkers () in
    let id, incarnation =
      match List.sort compare !vacant with
      | v :: rest ->
          vacant := rest;
          (v, Option.value ~default:0 (Hashtbl.find_opt incarnations v))
      | [] ->
          let id = !next_id in
          incr next_id;
          (id, 0)
    in
    spawn (rank_config p ~rank:id ~incarnation ~after:gen) None;
    failed_this_gen := List.filter (fun x -> x <> id) !failed_this_gen;
    let ok =
      await_hello id <> None
      && begin
           send id (Wire.Join { gen; e_trial = !e_trial });
           recv_expect ~timeout:startup id (function
             | Wire.Ack { ok; _ } -> Some ok
             | _ -> None)
           = Some true
         end
    in
    if not ok then begin
      (* The joiner never came up: restore the vacancy (with a fresh
         incarnation so a retry gets its own RNG block) and move on —
         an elastic run must not die because a grow step failed. *)
      tp.kill id;
      Hashtbl.remove members id;
      vacate id ~incarnation;
      incr skipped
    end
    else begin
      relay_exchange ~gen (live ());
      incr joins;
      Metrics.inc (Metrics.counter "sup.joins");
      Trace.instant ~args:[ ("rank", string_of_int id) ] "sup.join";
      log_member ~gen "join" id ~before
    end
  in
  let do_leave ~gen r =
    if (not (ok_rank r)) || List.length (List.filter ok_rank (live ())) <= 1
    then begin
      incr skipped;
      Trace.instant ~args:[ ("rank", string_of_int r) ] "sup.leave_skipped"
    end
    else begin
      let before = total_walkers () in
      let incarnation = (member r).incarnation in
      let drained =
        guard r (fun () ->
            tp.send r (Wire.Drain { gen });
            let ws =
              match recv r ~timeout:hb with
              | Wire.Walkers { walkers; _ } -> walkers
              | _ -> raise (Wire.Garbage "expected drain batch")
            in
            (match recv r ~timeout:hb with
            | Wire.Leave { count; _ } when count = List.length ws -> ()
            | _ -> raise (Wire.Garbage "drain count mismatch"));
            tp.send r Wire.Finish;
            (match recv r ~timeout:startup with
            | Wire.Final { acc = a; prop = pr; trace; _ } ->
                acc_left := !acc_left + a;
                prop_left := !prop_left + pr;
                ingest_trace r trace
            | _ -> raise (Wire.Garbage "expected final"));
            ws)
      in
      Hashtbl.remove members r;
      vacate r ~incarnation;
      match drained with
      | None ->
          (* The rank died mid-drain: [guard] already tore it down and
             its shard walkers are gone until the next checkpoint
             salvage.  Its slot is vacant for a later join to refill. *)
          incr skipped
      | Some ws ->
          tp.finish r;
          Ledger.drop_rank ledger ~rank:r;
          Hashtbl.remove rank_prop r;
          (match List.filter ok_rank (live ()) with
          | [] -> ()
          | dst :: _ ->
              count_comm ws;
              if ws <> [] then ignore (deliver ~gen dst ws));
          incr leaves;
          Metrics.inc (Metrics.counter "sup.leaves");
          Trace.instant ~args:[ ("rank", string_of_int r) ] "sup.leave";
          log_member ~gen "leave" r ~before
    end
  in
  (* -------- generation loop -------- *)
  let gen_ref = ref (start_gen + 1) in
  let job_drained = ref false in
  while (not !job_drained) && !gen_ref <= total_gens do
    let gen = !gen_ref in
    Trace.with_span ~args:[ ("gen", string_of_int gen) ] "sup.generation"
    @@ fun () ->
    let gen_t0 = Timers.now () in
    cur_gen := gen;
    failed_this_gen := [];
    rtt_max := 0.;
    let participants = live () in
    (* Phase 1: open the generation. *)
    List.iter
      (fun r ->
        ignore
          (guard r (fun () ->
               (member r).begin_t <- Timers.now ();
               tp.send r (Wire.Begin_gen { gen; e_trial = !e_trial }))))
      participants;
    (* Phase 2: arrival-order collection, ascending-order reduction. *)
    let arrivals = collect_phase2 ~gen participants in
    let wsum_t = ref 0. and esum_t = ref 0. and n_t = ref 0 in
    let acc_t = ref 0 and prop_t = ref 0 in
    let steal_from = ref [] in
    List.iter
      (fun r ->
        match Hashtbl.find_opt arrivals r with
        | None -> ()
        | Some (w, e, a, pr, n, kvs, arrival) ->
            wsum_t := !wsum_t +. w;
            esum_t := !esum_t +. e;
            acc_t := !acc_t + a;
            prop_t := !prop_t + pr;
            n_t := !n_t + n;
            let s = member r in
            s.count <- n;
            Metrics.absorb_kvs
              (List.map
                 (fun (kind, key, value) -> { Metrics.kind; key; value })
                 kvs);
            (* Ledger feed: the rank's generation wall (Begin_gen send to
               Reduce arrival) over its proposed-move delta. *)
            let gen_time = arrival -. s.begin_t in
            let before =
              Option.value ~default:0 (Hashtbl.find_opt rank_prop r)
            in
            Hashtbl.replace rank_prop r pr;
            Ledger.observe_gen ledger ~rank:r ~gen
              ~moves:(max 0 (pr - before)) ~wall_s:gen_time;
            (* Soft-deadline straggler check: the budget plus three
               smoothed RTTs of slack, so policy only fires on ranks
               genuinely slower than their own recent history. *)
            if p.gen_deadline_ms > 0 then begin
              let soft =
                (float_of_int p.gen_deadline_ms /. 1000.)
                +. (3. *. s.rtt_ewma)
              in
              if gen_time > soft then begin
                incr stragglers;
                Ledger.add_straggle ledger ~rank:r
                  ~seconds:(gen_time -. soft);
                s.straggles <- s.straggles + 1;
                Metrics.inc (Metrics.counter "sup.stragglers");
                Trace.instant
                  ~args:
                    [
                      ("rank", string_of_int r);
                      ("gen_ms", string_of_int (int_of_float (gen_time *. 1e3)));
                      ("policy", straggler_policy_name p.straggler_policy);
                    ]
                  "sup.straggler";
                match p.straggler_policy with
                | Warn -> ()
                | Steal -> steal_from := r :: !steal_from
                | Quarantine -> if s.straggles >= 3 then fail_rank r Stall
              end
              else s.straggles <- 0
            end)
      participants;
    let reduced = List.filter ok_rank participants in
    if reduced = [] then raise All_ranks_lost;
    if List.length reduced < p.ranks then incr degraded_generations;
    let e_gen = if !wsum_t > 0. then !esum_t /. !wsum_t else !e_trial in
    if gen > p.warmup then begin
      Stats.append energy_series e_gen;
      pop_series := !n_t :: !pop_series;
      samples := !samples + !n_t
    end;
    (* Per-generation acceptance from the cumulative move totals the
       ranks report; a respawned rank resets its totals, so the delta is
       clamped at zero for that generation. *)
    let gen_acc = max 0 (!acc_t - !prev_acc)
    and gen_prop = max 0 (!prop_t - !prev_prop) in
    prev_acc := !acc_t;
    prev_prop := !prop_t;
    (* Phase 3: branch, collect post-branch counts. *)
    List.iter (fun r -> send r (Wire.Branch { gen })) reduced;
    List.iter
      (fun r ->
        match
          recv_expect r (function
            | Wire.Count { gen = g; n } when g = gen -> Some n
            | _ -> None)
        with
        | Some n -> (member r).count <- n
        | None -> ())
      reduced;
    (* Phase 4: real load-balance exchange, relayed through the
       supervisor in deterministic plan order. *)
    relay_exchange ~gen reduced;
    (* Straggler stealing: shed a quarter of each flagged rank's shard
       to the currently fastest rank, AFTER the exchange so the plan
       stays deterministic. *)
    List.iter
      (fun r ->
        if ok_rank r then begin
          let k = (member r).count / 4 in
          let candidates =
            List.filter (fun x -> ok_rank x && x <> r) (live ())
          in
          let fastest =
            List.fold_left
              (fun best x ->
                match best with
                | None -> Some x
                | Some b ->
                    if (member x).rtt_ewma < (member b).rtt_ewma then Some x
                    else best)
              None candidates
          in
          match fastest with
          | Some dst when k > 0 ->
              relay_move ~gen r dst k ~others:candidates;
              incr steals;
              Metrics.inc (Metrics.counter "sup.steals");
              Trace.instant
                ~args:
                  [
                    ("from", string_of_int r);
                    ("to", string_of_int dst);
                    ("walkers", string_of_int k);
                  ]
                "sup.steal"
          | _ -> ()
        end)
      (List.rev !steal_from);
    (* Phase 5: global trial-energy feedback from the reduced counts. *)
    let total =
      List.fold_left
        (fun a r -> if ok_rank r then a + (member r).count else a)
        0 reduced
    in
    e_trial :=
      Population.trial_energy_update ~feedback:p.feedback ~tau:p.tau
        ~target:p.target_walkers ~population:total ~e_estimate:e_gen;
    (* Phase 6: sharded checkpoint round + manifest. *)
    (match p.checkpoint with
    | Some path when p.checkpoint_every > 0 && gen mod p.checkpoint_every = 0
      ->
        let round = List.filter ok_rank reduced in
        List.iter
          (fun r -> send r (Wire.Checkpoint_cmd { gen; e_trial = !e_trial }))
          round;
        let acked =
          List.filter
            (fun r ->
              recv_expect r (function
                | Wire.Ack { gen = g; ok } when g = gen -> Some ok
                | _ -> None)
              = Some true)
            round
        in
        (try Checkpoint.save_manifest ~path ~gen ~ranks:acked ()
         with Sys_error _ -> ())
    | _ -> ());
    (* Phase 7: recovery — respawn this generation's casualties, or
       degrade once the respawn budget is spent.  An abandoned slot is
       recorded VACANT, so a later membership Join can refill it with a
       fresh incarnation: degradation is reversible. *)
    List.iter
      (fun r ->
        let s = member r in
        if s.incarnation >= p.max_respawn then begin
          s.dead <- true;
          ranks_failed := r :: !ranks_failed;
          Ledger.drop_rank ledger ~rank:r;
          Hashtbl.remove rank_prop r;
          vacate r ~incarnation:s.incarnation;
          Metrics.inc (Metrics.counter "sup.ranks_abandoned");
          Trace.instant
            ~args:
              [
                ("rank", string_of_int r);
                ("incarnation", string_of_int s.incarnation);
              ]
            "sup.rank_abandoned";
          (* Salvage the lost shard from its newest valid checkpoint and
             spread it over the survivors. *)
          let salvaged =
            match p.checkpoint with
            | None -> []
            | Some path -> (
                match Checkpoint.load_latest_shard ~path ~rank:r with
                | _, (_, ws) -> ws
                | exception Checkpoint.Corrupt _ -> [])
          in
          let survivors = List.filter ok_rank (live ()) in
          let k = List.length survivors in
          if salvaged <> [] then
            List.iteri
              (fun i dst ->
                match List.filteri (fun j _ -> j mod k = i) salvaged with
                | [] -> ()
                | mine -> ignore (deliver ~gen dst mine))
              survivors
        end
        else begin
          incr respawns;
          let incarnation = s.incarnation + 1 in
          let backoff =
            p.respawn_backoff *. float_of_int (1 lsl (incarnation - 1))
          in
          Metrics.inc (Metrics.counter "sup.respawns");
          Trace.instant
            ~args:
              [
                ("rank", string_of_int r);
                ("incarnation", string_of_int incarnation);
                ("backoff_s", Printf.sprintf "%.3f" backoff);
              ]
            "sup.respawn";
          Unix.sleepf backoff;
          let init =
            match p.checkpoint with
            | None -> None
            | Some path -> (
                match Checkpoint.load_latest_shard ~path ~rank:r with
                | _, restored -> Some restored
                | exception Checkpoint.Corrupt _ -> None)
          in
          spawn (rank_config p ~rank:r ~incarnation ~after:gen) init;
          failed_this_gen := List.filter (fun x -> x <> r) !failed_this_gen;
          let abandon () =
            (member r).dead <- true;
            ranks_failed := r :: !ranks_failed
          in
          match await_hello r with
          | None -> abandon ()
          | Some () -> (
              match init with
              | Some (_, ws) -> (member r).count <- List.length ws
              | None -> (
                  (* No shard to restore: restart the rank from fresh
                     walkers at its ideal share of the target. *)
                  let want =
                    max 1 (p.target_walkers / max 1 (List.length (live ())))
                  in
                  send r (Wire.Init { count = want });
                  match await_init r with
                  | Some (_, _, n) -> (member r).count <- n
                  | None -> abandon ()))
        end)
      (List.rev !failed_this_gen);
    if live () = [] then raise All_ranks_lost;
    let elapsed = Timers.now () -. t0 in
    let acceptance = float_of_int gen_acc /. float_of_int (max 1 gen_prop) in
    let walkers_per_s =
      if elapsed > 0. then float_of_int !samples /. elapsed else 0.
    in
    let gen_record =
      Oqmc_obs.Jsonx.(Obj
         [
           ("gen", Num (float_of_int gen));
           ("e_gen", Num e_gen);
           ("e_trial", Num !e_trial);
           ("population", Num (float_of_int total));
           ("acceptance", Num acceptance);
           ("walkers_per_s", Num walkers_per_s);
           ("live_ranks", Num (float_of_int (List.length (live ()))));
           ("rtt_max_s", Num !rtt_max);
           ( "respawns",
             Num
               (float_of_int
                  (Metrics.counter_value
                     (Metrics.counter "sup.respawns"))) );
           ("wall_s", Num elapsed);
         ])
    in
    Flightrec.record "gen" gen_record;
    if gen > p.warmup then emit ~gen:(gen - p.warmup) gen_record;
    update_progress
      (Printf.sprintf
         "dmc[%d/%d ranks] gen %d/%d  E %+.6f  E_T %+.6f  pop %d  acc %.3f  %.0f w/s  lag %.1fms"
         (List.length (live ())) p.ranks gen total_gens e_gen !e_trial
         total acceptance walkers_per_s (1e3 *. !rtt_max));
    (* Membership events scheduled for this generation, applied after
       recovery so joins see a settled member set. *)
    if p.elastic then
      List.iter
        (fun (g, ev) ->
          if g = gen then
            match ev with
            | Join -> do_join ~gen
            | Leave r -> do_leave ~gen r)
        p.membership;
    let dt = Timers.now () -. gen_t0 in
    Metrics.observe m_gen_s dt;
    gen_times := dt :: !gen_times;
    if gen mod ledger_emit_every = 0 then emit_event (ledger_event ~gen ledger);
    fire_window p gen;
    (* Graceful early drain: the [stop] poll ends the run at the next
       generation boundary and the normal finals collection below still
       runs, so a deadline-stopped job reports consistent partial
       estimators instead of dying mid-protocol. *)
    if stop () then job_drained := true;
    let last = !job_drained || gen = total_gens in
    write_status ~force:last (fun () ->
        Oqmc_obs.Jsonx.(Obj
           [
             ("gen", Num (float_of_int gen));
             ("total_gens", Num (float_of_int total_gens));
             ("e_gen", Num e_gen);
             ("e_trial", Num !e_trial);
             ("population", Num (float_of_int total));
             ("live_ranks", Num (float_of_int (List.length (live ()))));
             ("walkers_per_s", Num walkers_per_s);
             ("wall_s", Num elapsed);
             ("ledger", Ledger.json ledger);
             ("audit", audit_json ());
           ]));
    Option.iter
      (fun f ->
        f ~gen ~last
          {
            Snapshot.gen;
            seed = p.seed;
            ranks = p.ranks;
            target = p.target_walkers;
            e_trial = !e_trial;
            energy = Stats.to_array energy_series;
            pops = Array.of_list (List.rev !pop_series);
            samples = !samples;
            comm_messages = !comm_messages;
            comm_bytes = !comm_bytes;
            rank_states = [];
          })
      on_boundary;
    incr gen_ref
  done;
  let last_gen = !gen_ref - 1 in
  (* -------- collect finals -------- *)
  let live_at_end = List.length (live ()) in
  let acc = ref !acc_left and prop = ref !prop_left in
  let final_walkers = ref [] in
  List.iter
    (fun r ->
      failed_this_gen := [];
      send r Wire.Finish;
      (match
         recv_expect ~timeout:startup r (function
           | Wire.Final { acc = a; prop = pr; walkers; trace } ->
               Some (a, pr, walkers, trace)
           | _ -> None)
       with
      | Some (a, pr, walkers, trace) ->
          acc := !acc + a;
          prop := !prop + pr;
          ingest_trace r trace;
          final_walkers := !final_walkers @ walkers
      | None -> ());
      tp.finish r)
    (live ());
  let pops = Array.of_list (List.rev !pop_series) in
  let job_result =
    {
      energy = Stats.series_mean energy_series;
      energy_error = Stats.series_error energy_series;
      variance = Stats.series_variance energy_series;
      tau_corr = Stats.autocorrelation_time energy_series;
      acceptance = float_of_int !acc /. float_of_int (max 1 !prop);
      wall_time = Timers.now () -. t0;
      mean_population =
        (if Array.length pops = 0 then 0.
         else
           float_of_int (Array.fold_left ( + ) 0 pops)
           /. float_of_int (Array.length pops));
      energy_series = Stats.to_array energy_series;
      population_series = pops;
      comm_messages = !comm_messages;
      comm_bytes = !comm_bytes;
      respawns = !respawns;
      heartbeat_timeouts = !hb_timeouts;
      garbage_frames = !garbage_frames;
      crashes = !crashes;
      ranks_failed = List.sort compare !ranks_failed;
      live_ranks = live_at_end;
      degraded_generations = !degraded_generations;
      joins = !joins;
      leaves = !leaves;
      stragglers = !stragglers;
      steals = !steals;
      membership_skipped = !skipped;
      membership_log = List.rev !membership_log;
      gen_p50_s = wall_percentile !gen_times 0.50;
      gen_p99_s = wall_percentile !gen_times 0.99;
      final_walkers = !final_walkers;
      final_e_trial = !e_trial;
    }
  in
  {
    job_result;
    gens_done = last_gen - start_gen;
    drained = !job_drained && last_gen < total_gens;
    resumed_from = start_gen;
  }
  with e ->
    (* Abort unwind — [All_ranks_lost], [Interrupted], startup failure:
       dump the flight recorder before [cleanup] closes the sinks, so
       the postmortem carries the still-enabled trace spans. *)
    let bt = Printexc.get_raw_backtrace () in
    flight_dump p (Printexc.to_string e);
    Printexc.raise_with_backtrace e bt

(* ---------- entry points ---------- *)

let never () = false

let run ~(factory : int -> Engine_api.t) (p : params) : result =
  (coordinate ~transport:(pipes ~factory) ~handle_signals:true ~stop:never p)
    .job_result

let run_local ~(factory : int -> Engine_api.t) (p : params) : result =
  let tp, _ = loopback ~factory ~resume:[] in
  (coordinate ~transport:(fun () -> tp) ~handle_signals:true ~stop:never p)
    .job_result

(* What the serve daemon calls once per accepted job.  Unlike [run] and
   [run_local] it NEVER installs signal handlers — the caller (a job
   runner process) owns its own signal policy and threads it through
   [stop] — and with [local = true] (the default) it can snapshot the
   full dynamical state every [snapshot_every] generations and resume
   bit-identically from the newest valid snapshot, which is how a
   crashed or suspended job continues without replaying work. *)
let run_job ~(factory : int -> Engine_api.t) ?(local = true) ?(stop = never)
    ?snapshot ?(snapshot_every = 1) (p : params) : job_outcome =
  validate p;
  if snapshot <> None && not local then
    invalid_arg "Supervisor.run_job: snapshots require local execution";
  if snapshot <> None && p.membership <> [] then
    invalid_arg "Supervisor: job snapshots require an empty membership plan";
  if snapshot_every < 1 then invalid_arg "Supervisor: snapshot_every < 1";
  if not local then
    coordinate ~transport:(pipes ~factory) ~handle_signals:false ~stop p
  else begin
    (* A valid snapshot of THIS job (parameters echoed and matching)
       resumes the run bit-identically; anything else starts fresh. *)
    let resume =
      match Option.bind snapshot (fun path -> Snapshot.load_latest ~path) with
      | Some (st, _) as found
        when st.Snapshot.seed = p.seed
             && st.Snapshot.ranks = p.ranks
             && st.Snapshot.target = p.target_walkers
             && st.Snapshot.gen <= p.warmup + p.generations ->
          found
      | _ -> None
    in
    let tp, shards =
      loopback ~factory
        ~resume:(match resume with Some (st, _) -> st.rank_states | None -> [])
    in
    (* Snapshot the complete dynamical state — everything [resume]
       restores — every [snapshot_every] generations, at the drain point
       and at the end, so a suspended job never replays work.  IO
       failures are swallowed: a snapshot that does not land only costs
       resume granularity. *)
    let on_boundary path ~gen ~last (st : Snapshot.state) =
      if last || gen mod snapshot_every = 0 then
        let live = shards () in
        let rank_states =
          List.map
            (fun (r, s) ->
              let r_master, r_pool = Rank.rng_states s
              and r_acc, r_prop = Rank.move_totals s in
              { Snapshot.r_rank = r; r_master; r_pool; r_acc; r_prop })
            live
        in
        try
          Snapshot.save ~path { st with rank_states }
            (List.map (fun (r, s) -> (r, Population.walkers (Rank.pop s))) live)
        with Sys_error _ | Checkpoint.Corrupt _ -> ()
    in
    coordinate ~transport:(fun () -> tp) ~handle_signals:false ~stop ?resume
      ?on_boundary:(Option.map on_boundary snapshot) p
  end
