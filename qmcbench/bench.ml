(* End-to-end QMC benchmark: runs the production path (Builder.make ->
   Build.factory -> Dmc.run / Vmc.run / Supervisor.run, with the knobs
   oqmc_run passes) on a fixed workload, in a closed loop of jobs, and
   reports throughput, per-generation wall time and set-up time.  A traced
   run wraps the closures of the engines the factory returns, turns on
   Oqmc_obs.Trace, and splits each generation into per-layer self times.

   Modes:
     bench.exe setup   --workload W --seed S
     bench.exe measure --workload W --seed S --seconds T --trace 0|1 --tmp D

   The last line of stdout is one JSON object; qmcbench/run.py merges the
   records of several processes into the benchmark's result. *)

open Oqmc_core
open Oqmc_workloads
module Trace = Oqmc_obs.Trace
module Jsonx = Oqmc_obs.Jsonx
module Walker = Oqmc_particle.Walker
module Spo = Oqmc_wavefunction.Spo
module Supervisor = Oqmc_dist.Supervisor

let now = Unix.gettimeofday

(* ---------- workloads ---------- *)

type driver = Dmc_driver | Vmc_driver | Ranks of int

type workload = {
  name : string;
  driver : driver;
  system : seed:int -> System.t;
  variant : Variant.t;
  precision : [ `F32 | `F64 ] option;  (* oqmc_run --precision *)
  crowd : int;
  delay : int;
  domains : int;
  walkers : int;
  tau : float;
  checkpoint_every : int;
  warmup : int;  (* DMC generations / VMC sweeps discarded per job *)
  gens : int;  (* measured DMC generations / VMC steps per job *)
  steps_per_block : int;  (* VMC only *)
  reference : (float * float) option;
      (* energy known independently of this run: (value, error) *)
}

(* Table storage follows oqmc_run's make_system: f32 unless the run asks
   for f64, flat layout. *)
let nio ~spec ~nlpp ~precision ~seed =
  let table_prec = match precision with Some `F64 -> `F64 | _ -> `F32 in
  Builder.make ~seed ~with_nlpp:nlpp ~reduction:4 ~precision:table_prec
    ~layout:`Flat ~tile:0 (Spec.find spec)

(* Benchmark workloads (BENCHMARK.json) come first.  They use VMC: DMC
   on every system tried here fails its output checks at some seeds, so
   the DMC workloads follow as known-defect checks. *)
let workloads =
  [
    (* the nio32-dmc knobs under the VMC driver: fixed population *)
    {
      name = "nio32-vmc";
      driver = Vmc_driver;
      system = nio ~spec:"NiO-32" ~nlpp:false ~precision:None;
      variant = Variant.Current;
      precision = None;
      crowd = 8;
      delay = 4;
      domains = 2;
      walkers = 16;
      tau = 0.005;
      checkpoint_every = 0;
      warmup = 2;
      gens = 50;
      steps_per_block = 10;
      reference = None;
    };
    {
      name = "nio32-vmc-nlpp-f64";
      driver = Vmc_driver;
      system = nio ~spec:"NiO-32" ~nlpp:true ~precision:(Some `F64);
      variant = Variant.Current;
      precision = Some `F64;
      crowd = 4;
      delay = 4;
      domains = 2;
      walkers = 8;
      tau = 0.1;
      checkpoint_every = 0;
      warmup = 2;
      gens = 50;
      steps_per_block = 10;
      reference = None;
    };
    {
      name = "nio32-ref-vmc";
      driver = Vmc_driver;
      system = nio ~spec:"NiO-32" ~nlpp:false ~precision:(Some `F64);
      variant = Variant.Ref;
      precision = Some `F64;
      crowd = 1;
      delay = 1;
      domains = 1;
      walkers = 16;
      tau = 0.005;
      checkpoint_every = 0;
      warmup = 1;
      gens = 20;
      steps_per_block = 10;
      reference = None;
    };
    (* Known-defect checks, not in BENCHMARK.json: some or all of their
       runs fail an output check.  NiO-32 DMC (Current and Ref) and heg
       DMC (one process or two ranks) diverge at some seeds; NiO-64/r4
       carries a log Psi drift of ~1e3 in every variant. *)
    {
      name = "nio32-dmc";
      driver = Dmc_driver;
      system = nio ~spec:"NiO-32" ~nlpp:false ~precision:None;
      variant = Variant.Current;
      precision = None;
      crowd = 8;
      delay = 4;
      domains = 2;
      walkers = 16;
      tau = 0.005;
      checkpoint_every = 0;
      warmup = 5;
      gens = 40;
      steps_per_block = 1;
      reference = None;
    };
    {
      name = "nio32-ref-dmc";
      driver = Dmc_driver;
      system = nio ~spec:"NiO-32" ~nlpp:false ~precision:(Some `F64);
      variant = Variant.Ref;
      precision = Some `F64;
      crowd = 1;
      delay = 1;
      domains = 1;
      walkers = 16;
      tau = 0.005;
      checkpoint_every = 0;
      warmup = 3;
      gens = 15;
      steps_per_block = 1;
      reference = None;
    };
    {
      name = "nio64-vmc-nlpp";
      driver = Vmc_driver;
      system = nio ~spec:"NiO-64" ~nlpp:true ~precision:None;
      variant = Variant.Current;
      precision = None;
      crowd = 4;
      delay = 4;
      domains = 2;
      walkers = 8;
      tau = 0.1;
      checkpoint_every = 0;
      warmup = 2;
      gens = 20;
      steps_per_block = 10;
      reference = None;
    };
    {
      name = "heg-dmc";
      driver = Dmc_driver;
      system =
        (fun ~seed:_ -> Validation.electron_gas ~n_up:8 ~n_down:8 ~box:6.0 ());
      variant = Variant.Current;
      precision = None;
      crowd = 1;
      delay = 1;
      domains = 1;
      walkers = 256;
      tau = 0.02;
      checkpoint_every = 10;
      warmup = 10;
      gens = 40;
      steps_per_block = 1;
      reference = Some (53.747, 0.010);
    };
    {
      name = "heg-dmc-2rank";
      driver = Ranks 2;
      system =
        (fun ~seed:_ -> Validation.electron_gas ~n_up:8 ~n_down:8 ~box:6.0 ());
      variant = Variant.Current;
      precision = None;
      crowd = 1;
      delay = 1;
      domains = 1;
      walkers = 256;
      tau = 0.02;
      checkpoint_every = 10;
      warmup = 10;
      gens = 40;
      steps_per_block = 1;
      (* single-process heg DMC at tau = 0.02 (oqmc_run, seed 1) *)
      reference = Some (53.747, 0.010);
    };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      prerr_endline ("bench: unknown workload " ^ name);
      exit 2

let factory (wl : workload) ~seed sys =
  Build.factory
    ?delay:(if wl.delay <= 1 then None else Some wl.delay)
    ?precision:wl.precision ~variant:wl.variant ~seed sys

(* ---------- engine wrapping (traced runs only) ---------- *)

let span name f = Trace.with_span name f

let wrap_stages (cs : Engine_api.crowd_stage) : Engine_api.crowd_stage =
  {
    cs_prepare =
      (fun ~k ~m -> span "bench.particle.prepare" (fun () -> cs.cs_prepare ~k ~m));
    cs_grad =
      (fun ~k ~m ~slots ~gx ~gy ~gz ->
        span "bench.wavefunction.grad" (fun () ->
            cs.cs_grad ~k ~m ~slots ~gx ~gy ~gz));
    cs_propose =
      (fun ~k ~m ~pos ->
        span "bench.particle.propose" (fun () -> cs.cs_propose ~k ~m ~pos));
    cs_ratio_grad =
      (fun ~k ~m ~slots ~ratio ~gx ~gy ~gz ->
        span "bench.wavefunction.ratio_grad" (fun () ->
            cs.cs_ratio_grad ~k ~m ~slots ~ratio ~gx ~gy ~gz));
    cs_commit =
      (fun ~k ~m ~acc ~ratio ->
        span "bench.wavefunction.commit" (fun () ->
            cs.cs_commit ~k ~m ~acc ~ratio));
  }

let wrap_engine (e : Engine_api.t) : Engine_api.t =
  let pb = e.pbp in
  let pbp =
    {
      pb with
      Engine_api.prepare =
        (fun k -> span "bench.particle.prepare" (fun () -> pb.prepare k));
      grad = (fun k -> span "bench.wavefunction.grad" (fun () -> pb.grad k));
      propose =
        (fun k p -> span "bench.particle.propose" (fun () -> pb.propose k p));
      ratio_grad =
        (fun k -> span "bench.wavefunction.ratio_grad" (fun () -> pb.ratio_grad k));
      accept =
        (fun k ~ratio ->
          span "bench.wavefunction.commit" (fun () -> pb.accept k ~ratio));
      reject =
        (fun k -> span "bench.wavefunction.commit" (fun () -> pb.reject k));
    }
  in
  let wrap_batch (b : Spo.vgl_batch) =
    {
      b with
      Spo.run =
        (fun pos n -> span "bench.spline.vgl_batch" (fun () -> b.run pos n));
    }
  in
  {
    e with
    sweep = (fun rng ~tau -> span "bench.qmc.sweep" (fun () -> e.sweep rng ~tau));
    measure = (fun () -> span "bench.hamiltonian.measure" e.measure);
    restore_walker =
      (fun w -> span "bench.qmc.restore_walker" (fun () -> e.restore_walker w));
    save_walker =
      (fun w -> span "bench.qmc.save_walker" (fun () -> e.save_walker w));
    pbp;
    make_vgl_batch = (fun n -> wrap_batch (e.make_vgl_batch n));
    make_crowd_stages =
      (fun hooks -> Option.map wrap_stages (e.make_crowd_stages hooks));
  }

(* ---------- one job ---------- *)

type job = {
  seed : int;
  energies : float array;  (* per measured generation (VMC: per block) *)
  pops : int array;
  energy : float;
  energy_error : float;
  driver_wall : float;  (* the Dmc.run / Vmc.run / Supervisor.run call, s *)
  measured_wall : float;  (* the driver's own measured-generation wall, s *)
  timed : (float * float) list;
      (* (walker-generations, wall s) per timed generation; a VMC entry
         is one block, wall divided by its steps in [gen_times] *)
  gen_times : float list;  (* per-generation wall, s *)
  acceptance : float;
  quarantined : int;
  ckpt_failures : int;
  respawns : int;
  timeouts : int;
  exchange_msgs : int;
  exchange_bytes : int;
  drift : float;
  energy_dev : float;
  walker_msg_bytes : int;
  engine_bytes : int;
  checkpoint_bytes : int;
  rtts : float list;  (* per generation heartbeat RTT max, s *)
  events : Trace.event list;  (* traced jobs only *)
  dropped : int;
}

let empty_job =
  {
    seed = 0;
    energies = [||];
    pops = [||];
    energy = 0.;
    energy_error = 0.;
    driver_wall = 0.;
    measured_wall = 0.;
    timed = [];
    gen_times = [];
    acceptance = 0.;
    quarantined = 0;
    ckpt_failures = 0;
    respawns = 0;
    timeouts = 0;
    exchange_msgs = 0;
    exchange_bytes = 0;
    drift = 0.;
    energy_dev = 0.;
    walker_msg_bytes = 0;
    engine_bytes = 0;
    checkpoint_bytes = 0;
    rtts = [];
    events = [];
    dropped = 0;
  }

let read_telemetry path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | line -> (
        match Jsonx.parse_string_exn line with
        | j -> (
            match
              ( Option.bind (Jsonx.member "wall_s" j) Jsonx.to_float,
                Option.bind (Jsonx.member "gen" j) Jsonx.to_float,
                Option.bind (Jsonx.member "block" j) Jsonx.to_float )
            with
            | Some w, g, b when g <> None || b <> None ->
                let rtt =
                  Option.bind (Jsonx.member "rtt_max_s" j) Jsonx.to_float
                in
                loop ((w, rtt) :: acc)
            | _ -> loop acc)
        | exception Jsonx.Parse_error _ -> loop acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  loop []

let diffs = function
  | [] -> []
  | x :: rest ->
      let _, out =
        List.fold_left (fun (prev, acc) y -> (y, (y -. prev) :: acc)) (x, []) rest
      in
      List.rev out

(* The final walkers against a from-scratch recompute on a fresh engine:
   the largest |stored - recomputed| log Psi, and the largest relative
   deviation of the stored local energy from a fresh measure — both
   carried by the incremental (crowd, delayed-update, mixed-precision)
   state the run produced. *)
let recompute_check fac walkers =
  match walkers with
  | [] -> (0., 0.)
  | _ ->
      let e : Engine_api.t = fac 0 in
      List.fold_left
        (fun (dpsi, de) (w : Walker.t) ->
          let psi = w.Walker.log_psi and el = w.Walker.e_local in
          e.load_walker w;
          let fresh = e.measure () in
          ( Float.max dpsi (Float.abs (psi -. e.log_psi ())),
            Float.max de (Float.abs (el -. fresh) /. Float.max 1. (Float.abs fresh)) ))
        (0., 0.) walkers

(* Bytes of the last checkpoint generation written under [paths]; every
   file of the job's checkpoint prefix [ck] is removed afterwards. *)
let checkpoint_bytes ~tmp ~ck ~paths (wl : workload) =
  let bytes =
    if wl.checkpoint_every <= 0 then 0
    else
      let last =
        wl.checkpoint_every * ((wl.warmup + wl.gens) / wl.checkpoint_every)
      in
      List.fold_left
        (fun acc path ->
          let p = Checkpoint.generation_path ~path last in
          acc + try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0)
        0 paths
  in
  let prefix = Filename.basename ck in
  Array.iter
    (fun f ->
      if String.starts_with ~prefix f then
        try Sys.remove (Filename.concat tmp f) with Sys_error _ -> ())
    (Sys.readdir tmp);
  bytes

let walker_bytes = function
  | w :: _ -> Walker.message_bytes w
  | [] -> 0

let run_job ~(wl : workload) ~tmp ~sys ~seed ~traced ~factory_time =
  let base = factory wl ~seed sys in
  (* engines built in this process; a forked run builds them in its ranks *)
  let first = ref None in
  let fac i =
    let t = now () in
    let e = base i in
    factory_time := !factory_time +. (now () -. t);
    if Option.is_none !first then first := Some e;
    if traced then wrap_engine e else e
  in
  let tel = Filename.concat tmp (Printf.sprintf "tel-%d.jsonl" (Unix.getpid ())) in
  (try Sys.remove tel with Sys_error _ -> ());
  if traced then Trace.clear ();
  let job =
    match wl.driver with
    | Dmc_driver ->
        let ck = Filename.concat tmp (Printf.sprintf "ck-%d" (Unix.getpid ())) in
        let t = now () in
        let res =
          Oqmc_obs.Telemetry.with_sink tel (fun sink ->
              Dmc.run ~crowd:wl.crowd ~telemetry:sink ~factory:fac
                ~checkpoint_every:wl.checkpoint_every ~checkpoint_path:ck
                {
                  Dmc.target_walkers = wl.walkers;
                  warmup = wl.warmup;
                  generations = wl.gens;
                  tau = wl.tau;
                  seed = seed + 1;
                  n_domains = wl.domains;
                  ranks = 1;
                })
        in
        let driver_wall = now () -. t in
        let walls = List.map fst (read_telemetry tel) in
        let gt = diffs walls in
        let pops = res.Dmc.population_series in
        let timed =
          List.mapi (fun i dt -> (float_of_int pops.(i + 1), dt)) gt
        in
        let ck_bytes = checkpoint_bytes ~tmp ~ck ~paths:[ ck ] wl in
        let drift, energy_dev = recompute_check base res.Dmc.final_walkers in
        {
          empty_job with
          driver_wall;
          measured_wall = res.Dmc.wall_time;
          energies = res.Dmc.energy_series;
          pops;
          energy = res.Dmc.energy;
          energy_error = res.Dmc.energy_error;
          timed;
          gen_times = gt;
          acceptance = res.Dmc.acceptance;
          quarantined = res.Dmc.integrity.Integrity.quarantined;
          ckpt_failures = res.Dmc.integrity.Integrity.checkpoint_failures;
          drift;
          energy_dev;
          walker_msg_bytes = walker_bytes res.Dmc.final_walkers;
          checkpoint_bytes = ck_bytes;
        }
    | Vmc_driver ->
        let blocks = max 1 (wl.gens / wl.steps_per_block) in
        let finals = Hashtbl.create 16 in
        let observe (w : Walker.t) = Hashtbl.replace finals w.Walker.id w in
        let t = now () in
        let res =
          Oqmc_obs.Telemetry.with_sink tel (fun sink ->
              Vmc.run ~observe ~crowd:wl.crowd ~telemetry:sink ~factory:fac
                {
                  Vmc.n_walkers = wl.walkers;
                  warmup = wl.warmup;
                  blocks;
                  steps_per_block = wl.steps_per_block;
                  tau = wl.tau;
                  seed = seed + 1;
                  n_domains = wl.domains;
                })
        in
        let driver_wall = now () -. t in
        (* log Psi is refreshed at every block end, so its drift is the
           driver's own block-end measurement *)
        let _, energy_dev =
          recompute_check base (Hashtbl.fold (fun _ w acc -> w :: acc) finals [])
        in
        let walls = List.map fst (read_telemetry tel) in
        let bt = diffs (0. :: walls) in
        let spb = float_of_int wl.steps_per_block in
        let samples = float_of_int (wl.walkers * wl.steps_per_block) in
        {
          empty_job with
          driver_wall;
          measured_wall = res.Vmc.wall_time;
          energies = res.Vmc.block_energies;
          pops = Array.make blocks wl.walkers;
          energy = res.Vmc.energy;
          energy_error = res.Vmc.energy_error;
          timed = List.map (fun dt -> (samples, dt)) bt;
          gen_times = List.map (fun dt -> dt /. spb) bt;
          acceptance = res.Vmc.acceptance;
          drift = res.Vmc.drift_max;
          energy_dev;
        }
    | Ranks ranks ->
        let ck = Filename.concat tmp (Printf.sprintf "ck-%d" (Unix.getpid ())) in
        let t = now () in
        let res =
          Supervisor.run ~factory:fac
            {
              Supervisor.default_params with
              ranks;
              target_walkers = wl.walkers;
              warmup = wl.warmup;
              generations = wl.gens;
              tau = wl.tau;
              seed = seed + 1;
              n_domains = wl.domains;
              checkpoint = (if wl.checkpoint_every > 0 then Some ck else None);
              checkpoint_every = wl.checkpoint_every;
              telemetry = Some tel;
            }
        in
        let driver_wall = now () -. t in
        let recs = read_telemetry tel in
        let gt = diffs (List.map fst recs) in
        let pops = res.Supervisor.population_series in
        let timed =
          List.mapi (fun i dt -> (float_of_int pops.(i + 1), dt)) gt
        in
        let ck_bytes =
          checkpoint_bytes ~tmp ~ck
            ~paths:(List.init ranks (fun r -> Checkpoint.shard_path ~path:ck ~rank:r))
            wl
        in
        let drift, energy_dev =
          recompute_check base res.Supervisor.final_walkers
        in
        {
          empty_job with
          driver_wall;
          measured_wall = res.Supervisor.wall_time;
          energies = res.Supervisor.energy_series;
          pops;
          energy = res.Supervisor.energy;
          energy_error = res.Supervisor.energy_error;
          timed;
          gen_times = gt;
          acceptance = res.Supervisor.acceptance;
          respawns = res.Supervisor.respawns;
          timeouts = res.Supervisor.heartbeat_timeouts;
          exchange_msgs = res.Supervisor.comm_messages;
          exchange_bytes = res.Supervisor.comm_bytes;
          drift;
          energy_dev;
          walker_msg_bytes = walker_bytes res.Supervisor.final_walkers;
          checkpoint_bytes = ck_bytes;
          rtts = List.filter_map snd recs;
        }
  in
  (try Sys.remove tel with Sys_error _ -> ());
  let engine_bytes =
    match !first with Some e -> e.Engine_api.memory_bytes () | None -> 0
  in
  let job = { job with seed; engine_bytes } in
  if traced then
    { job with events = Trace.events (); dropped = Trace.dropped () }
  else job

(* ---------- output checks ---------- *)

(* Largest |stored - recomputed log Psi| a walker may carry: the
   watchdog's own quarantine threshold (Integrity.default_config). *)
let drift_tol = Integrity.default_config.Integrity.drift_tol

(* Largest relative deviation of a stored local energy from a fresh
   recompute: the watchdog's bound on serialized-state deviation. *)
let energy_tol = Integrity.default_config.Integrity.buffer_tol

let job_checks (wl : workload) (j : job) =
  let finite x = Float.is_finite x in
  let pmin = Array.fold_left min max_int j.pops
  and pmax = Array.fold_left max 0 j.pops in
  let checks =
    [
      ( "energies_finite",
        Array.for_all finite j.energies && finite j.energy,
        Printf.sprintf "E = %.6f +/- %.6f" j.energy j.energy_error );
      ( "population_bounded",
        4 * pmin >= wl.walkers && pmax <= 4 * wl.walkers,
        Printf.sprintf "population in [%d, %d], target %d" pmin pmax
          wl.walkers );
      ( "acceptance",
        j.acceptance >= 0.5 && j.acceptance <= 1.,
        Printf.sprintf "acceptance %.4f (>= 0.5)" j.acceptance );
      ( "log_psi_drift",
        j.drift <= drift_tol,
        Printf.sprintf "drift %.3g (<= %.0e)" j.drift drift_tol );
      ( "local_energy_recompute",
        j.energy_dev <= energy_tol,
        Printf.sprintf "relative deviation %.3g (<= %.0e)" j.energy_dev
          energy_tol );
      ( "no_quarantine",
        j.quarantined = 0,
        Printf.sprintf "%d walkers quarantined" j.quarantined );
      ( "checkpoints_written",
        j.ckpt_failures = 0,
        Printf.sprintf "%d checkpoint writes failed" j.ckpt_failures );
      ( "ranks_healthy",
        j.respawns = 0 && j.timeouts = 0,
        Printf.sprintf "%d respawns, %d timeouts" j.respawns j.timeouts );
    ]
  in
  match wl.reference with
  | None -> checks
  | Some (e_ref, err_ref) ->
      let sigma = sqrt ((j.energy_error ** 2.) +. (err_ref ** 2.)) in
      checks
      @ [
          ( "energy_vs_reference",
            Float.abs (j.energy -. e_ref) <= 5. *. sigma,
            Printf.sprintf "E = %.3f +/- %.3f vs single-process %.3f +/- %.3f"
              j.energy j.energy_error e_ref err_ref );
        ]

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let same_trajectory (a : job) (b : job) =
  same_bits a.energies b.energies
  && a.pops = b.pops
  && a.exchange_msgs = b.exchange_msgs
  && a.exchange_bytes = b.exchange_bytes

(* ---------- statistics ---------- *)

let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      let f = pos -. float_of_int i in
      if i + 1 < n then (a.(i) *. (1. -. f)) +. (a.(i + 1) *. f) else a.(i)

let sum = List.fold_left ( +. ) 0.

(* ---------- trace analysis ---------- *)

(* Layer owning a span's self time.  Kernel timer keys record spans
   under their own names; bench.* spans are the wrapper's. *)
let layer_of name =
  match name with
  | "Bspline-vgh" | "Bspline-v" | "SPO-vgl" | "bench.spline.vgl_batch" ->
      Some "spline"
  | "DistTable" | "bench.particle.prepare" | "bench.particle.propose" ->
      Some "particle"
  | "J1" | "J2" | "bench.wavefunction.grad" | "bench.wavefunction.ratio_grad"
  | "bench.wavefunction.commit" ->
      Some "wavefunction"
  | "DetUpdate" -> Some "linalg"
  | "Other" | "bench.hamiltonian.measure" -> Some "hamiltonian"
  | "dmc.sweep" | "crowd.sweep" | "bench.qmc.sweep" | "bench.qmc.restore_walker"
  | "bench.qmc.save_walker" | "dmc.branch" | "dmc.checkpoint" | "dmc.watchdog"
    ->
      Some "qmc"
  | "sup.generation" | "rank.generation" -> Some "dist"
  | "runner.region" -> Some "idle"
  | _ -> None

let layers = [ "spline"; "particle"; "wavefunction"; "linalg"; "hamiltonian"; "qmc"; "dist" ]

type span_stat = { mutable self_s : float; mutable incl_s : float; mutable calls : int }

type split = {
  n_gens : float;  (* measured generations (VMC: steps) in the windows *)
  wall_span : float;  (* sum of window span durations, s *)
  lanes : int;  (* domain lanes the windows are budgeted over *)
  stats : (string, span_stat) Hashtbl.t;
  idle_uncovered : float;  (* worker-lane time inside windows not in any span *)
  rank_gen_max : float;  (* sum over windows of the slowest rank.generation *)
  ckpt_extra : float;  (* checkpoint generations' wall above the median *)
}

let stat tbl name =
  match Hashtbl.find_opt tbl name with
  | Some s -> s
  | None ->
      let s = { self_s = 0.; incl_s = 0.; calls = 0 } in
      Hashtbl.add tbl name s;
      s

(* Window spans are the driver's generation spans on the main lane:
   vmc.block, or dmc.generation / sup.generation from the second measured
   generation on — the generations whose wall time telemetry also
   measures (a generation's time is the gap between two records).  Every
   other span is assigned to the window its start falls in; self time =
   duration minus direct children, per lane. *)
let analyze (wl : workload) (events : Trace.event list) =
  let spans = List.filter (fun (e : Trace.event) -> e.ph = 'X') events in
  let gen_of (e : Trace.event) =
    Option.value ~default:0
      (Option.bind (List.assoc_opt "gen" e.args) int_of_string_opt)
  in
  let window_name, lanes, steps =
    match wl.driver with
    | Dmc_driver -> ("dmc.generation", wl.domains, 1)
    | Vmc_driver -> ("vmc.block", wl.domains, wl.steps_per_block)
    | Ranks r -> ("sup.generation", 1 + (r * wl.domains), 1)
  in
  let windows =
    List.filter
      (fun (e : Trace.event) ->
        e.name = window_name
        && (window_name = "vmc.block" || gen_of e > wl.warmup + 1))
      spans
    |> List.map (fun (e : Trace.event) -> (e.ts, e.ts +. e.dur, gen_of e))
    |> List.sort compare |> Array.of_list
  in
  let win_start (s, _, _) = s and win_end (_, e, _) = e in
  let nw = Array.length windows in
  let window_of ts =
    (* last window starting at or before ts, if ts lies inside it *)
    let lo = ref 0 and hi = ref (nw - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if win_start windows.(mid) <= ts then begin
        found := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    if !found >= 0 && ts <= win_end windows.(!found) then Some !found
    else None
  in
  let tbl = Hashtbl.create 32 in
  let win_len w = win_end w -. win_start w in
  let wall_span = Array.fold_left (fun a w -> a +. win_len w) 0. windows in
  (* Checkpoint generations' extra wall over the median generation: the
     forked driver has no checkpoint span of its own. *)
  let ckpt_extra =
    if wl.checkpoint_every <= 0 then 0.
    else
      let is_ck (_, _, g) = g mod wl.checkpoint_every = 0 in
      let ck, other = List.partition is_ck (Array.to_list windows) in
      let med = quantile 0.5 (List.map win_len other) in
      sum (List.map (fun w -> Float.max 0. (win_len w -. med)) ck)
  in
  let covered = ref 0. in
  let rank_max = Array.make nw 0. in
  let lane_key (e : Trace.event) = (e.pid, e.tid) in
  let by_lane = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let k = lane_key e in
      Hashtbl.replace by_lane k
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_lane k)))
    spans;
  Hashtbl.iter
    (fun _ lane ->
      let lane =
        List.sort
          (fun (a : Trace.event) (b : Trace.event) ->
            compare (a.ts, -.a.dur) (b.ts, -.b.dur))
          lane
      in
      (* stack of (end, child-duration accumulator, event) *)
      let stack = ref [] in
      let finish (_, child, (e : Trace.event)) =
        match window_of e.ts with
        | None -> ()
        | Some w ->
            let s = stat tbl e.name in
            s.self_s <- s.self_s +. (e.dur -. !child);
            s.incl_s <- s.incl_s +. e.dur;
            (* crowd.sweep counts walker sweeps, like bench.qmc.sweep *)
            s.calls <-
              s.calls
              +
              if e.name = "crowd.sweep" then
                Option.value ~default:1
                  (Option.bind (List.assoc_opt "active" e.args)
                     int_of_string_opt)
              else 1;
            if e.name = "rank.generation" then
              rank_max.(w) <- Float.max rank_max.(w) e.dur
      in
      List.iter
        (fun (e : Trace.event) ->
          let rec pop () =
            match !stack with
            | ((fin, _, _) as top) :: rest when fin <= e.ts ->
                finish top;
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | (_, child, _) :: _ -> child := !child +. e.dur
          | [] -> (
              (* a top-level span: lane coverage inside the windows *)
              if e.name <> window_name then
                match window_of e.ts with
                | Some _ -> covered := !covered +. e.dur
                | None -> ()));
          stack := (e.ts +. e.dur, ref 0., e) :: !stack)
        lane;
      List.iter finish !stack)
    by_lane;
  {
    n_gens = float_of_int (nw * steps);
    wall_span;
    lanes;
    stats = tbl;
    idle_uncovered = (float_of_int (lanes - 1) *. wall_span) -. !covered;
    rank_gen_max = Array.fold_left ( +. ) 0. rank_max;
    ckpt_extra;
  }

let merge_splits = function
  | [] -> None
  | s0 :: rest ->
      let tbl = Hashtbl.create 32 in
      let add (s : split) =
        Hashtbl.iter
          (fun k (v : span_stat) ->
            let t = stat tbl k in
            t.self_s <- t.self_s +. v.self_s;
            t.incl_s <- t.incl_s +. v.incl_s;
            t.calls <- t.calls + v.calls)
          s.stats
      in
      List.iter add (s0 :: rest);
      Some
        (List.fold_left
           (fun acc (s : split) ->
             {
               acc with
               n_gens = acc.n_gens +. s.n_gens;
               wall_span = acc.wall_span +. s.wall_span;
               idle_uncovered = acc.idle_uncovered +. s.idle_uncovered;
               rank_gen_max = acc.rank_gen_max +. s.rank_gen_max;
               ckpt_extra = acc.ckpt_extra +. s.ckpt_extra;
             })
           { s0 with stats = tbl } rest)

(* ---------- phases ---------- *)

let job_seed seed j = (seed * 1000) + j

(* Closed loop: jobs run to completion one at a time until [seconds] have
   passed, then job 0 is repeated with its seed for the repeat check.
   The loop stops early enough that the repeat ends near [seconds]. *)
let job_loop ~wl ~tmp ~sys ~seed ~seconds ~traced ~factory_time ~on_job =
  let t0 = now () in
  let rec loop j acc =
    let t = now () in
    let job = run_job ~wl ~tmp ~sys ~seed:(job_seed seed j) ~traced ~factory_time in
    let job = on_job job in
    let last = now () -. t in
    if now () -. t0 +. (2. *. last) < seconds then loop (j + 1) (job :: acc)
    else List.rev (job :: acc)
  in
  let jobs = loop 0 [] in
  let rep =
    on_job (run_job ~wl ~tmp ~sys ~seed:(job_seed seed 0) ~traced ~factory_time)
  in
  (jobs, rep)

(* Set-up: workload start to the first generation — the B-spline fit,
   the factory, the domain pool, the initial ensemble and the rank fork.
   A one-generation probe job runs the driver; its measured-generation
   wall (the driver's own clock) is taken off the driver call. *)
let setup_record (wl : workload) ~seed ~tmp =
  let t0 = now () in
  let sys = wl.system ~seed in
  let build_s = now () -. t0 in
  let factory_time = ref 0. in
  let probe = { wl with warmup = 0; gens = wl.steps_per_block } in
  let j =
    run_job ~wl:probe ~tmp ~sys ~seed:(job_seed seed 999) ~traced:false
      ~factory_time
  in
  (build_s +. j.driver_wall -. j.measured_wall, build_s, !factory_time)

(* ---------- measure ---------- *)

(* Closure bound of the traced run: the residual (generation wall not
   attributed to a layer or to idle domains) within +/- this share of
   the wall; a negative residual is double counting. *)
let closure_bound = 0.05

let trace_capacity = 1 lsl 20

let num x = Jsonx.Num x
let str x = Jsonx.Str x

let throughput jobs =
  let timed = List.concat_map (fun (j : job) -> j.timed) jobs in
  let samples = sum (List.map fst timed) and wall = sum (List.map snd timed) in
  if wall > 0. then samples /. wall else 0.

let measure ~(wl : workload) ~seed ~seconds ~trace ~tmp =
  let sys = wl.system ~seed in
  let checks = ref [] in
  let check name ok detail = checks := (name, ok, detail) :: !checks in
  let attempted = ref 0 and failed = ref 0 in
  let factory_time = ref 0. in
  (* per-job checks: a failing job fails its measured generations *)
  let tally = Hashtbl.create 8 in
  let on_checks (j : job) =
    let cs = job_checks wl j in
    let ok = List.for_all (fun (_, ok, _) -> ok) cs in
    attempted := !attempted + wl.gens;
    if not ok then failed := !failed + wl.gens;
    List.iter
      (fun (name, ok, detail) ->
        let pass, total, last_fail =
          Option.value ~default:(0, 0, None) (Hashtbl.find_opt tally name)
        in
        Hashtbl.replace tally name
          ( (pass + if ok then 1 else 0),
            total + 1,
            if ok && last_fail <> None then last_fail
            else Some ((if ok then "last: " else "failing: ") ^ detail) ))
      cs
  in
  let untraced_seconds = if trace then seconds /. 2. else seconds in
  let jobs_u, rep_u =
    job_loop ~wl ~tmp ~sys ~seed ~seconds:untraced_seconds ~traced:false
      ~factory_time ~on_job:(fun j ->
        on_checks j;
        j)
  in
  let all_u = jobs_u @ [ rep_u ] in
  check "repeat_same_seed"
    (same_trajectory (List.hd jobs_u) rep_u)
    (Printf.sprintf
       "job seed %d run twice: energy and population series bit-identical"
       rep_u.seed);
  let sps_u = throughput all_u in
  let gen_ms = List.map (fun x -> 1e3 *. x) (List.concat_map (fun j -> j.gen_times) all_u) in
  let metrics = ref [] in
  let metric name v unit = metrics := (name, v, unit) :: !metrics in
  let info = ref [] in
  let add_info k v = info := (k, v) :: !info in
  add_info "jobs" (num (float_of_int (List.length all_u)));
  add_info "gen_samples" (num (float_of_int (List.length gen_ms)));
  add_info "energy"
    (str
       (String.concat " "
          (List.map (fun (j : job) -> Printf.sprintf "%.4f" j.energy) all_u)));
  add_info "spline_table_mb"
    (num (float_of_int sys.System.spo.Spo.bytes /. 1048576.));
  if not trace then begin
    metric "samples_per_s" sps_u "walker-gen/s";
    metric "gen_ms_p50" (quantile 0.5 gen_ms) "ms";
    metric "gen_ms_p95" (quantile 0.95 gen_ms) "ms"
  end
  else begin
    Trace.enable ~capacity:trace_capacity ();
    let splits = ref [] in
    let jobs_t, rep_t =
      job_loop ~wl ~tmp ~sys ~seed ~seconds:(seconds /. 2.) ~traced:true
        ~factory_time ~on_job:(fun j ->
          on_checks j;
          let sp = analyze wl j.events in
          splits := sp :: !splits;
          { j with events = [] })
    in
    Trace.disable ();
    let all_t = jobs_t @ [ rep_t ] in
    let splits = List.rev !splits in
    let sp0 = List.hd splits and sp_rep = List.nth splits (List.length splits - 1) in
    let j0 = List.hd jobs_t in
    check "traced_bit_identical"
      (same_trajectory (List.hd jobs_u) j0)
      "wrapped+traced job vs untraced job, same seed: energy, population \
       and exchange series bit-identical";
    let calls (sp : split) =
      Hashtbl.fold (fun k (v : span_stat) acc -> (k, v.calls) :: acc) sp.stats []
      |> List.sort compare
    in
    check "counts_repeat"
      (calls sp0 = calls sp_rep
      && j0.engine_bytes = rep_t.engine_bytes
      && j0.walker_msg_bytes = rep_t.walker_msg_bytes
      && j0.exchange_msgs = rep_t.exchange_msgs
      && j0.exchange_bytes = rep_t.exchange_bytes)
      "span call counts, engine state, walker message and exchange sizes \
       identical across two traced runs of one seed";
    let dropped = List.fold_left (fun a (j : job) -> a + j.dropped) 0 all_t in
    check "trace_complete" (dropped = 0)
      (Printf.sprintf "%d spans lost to ring overwrite" dropped);
    let sp = Option.get (merge_splits splits) in
    let g = Float.max 1. sp.n_gens in
    let per_gen_ms x = 1e3 *. x /. g in
    let self_of layer =
      Hashtbl.fold
        (fun k (v : span_stat) acc ->
          if layer_of k = Some layer then acc +. v.self_s else acc)
        sp.stats 0.
    in
    let find k =
      Option.value ~default:{ self_s = 0.; incl_s = 0.; calls = 0 }
        (Hashtbl.find_opt sp.stats k)
    in
    let w_tel = sum (List.concat_map (fun (j : job) -> List.map snd j.timed) all_t) in
    let budget = float_of_int sp.lanes *. w_tel in
    let idle = sp.idle_uncovered +. self_of "idle" in
    let attributed = sum (List.map self_of layers) +. idle in
    let residual = budget -. attributed in
    let residual_pct = if budget > 0. then 100. *. residual /. budget else 0. in
    check "closure"
      (Float.abs residual_pct <= 100. *. closure_bound)
      (Printf.sprintf
         "layers %.1f + idle %.1f + residual %.1f = %d x wall %.1f domain-ms \
          per generation; residual %+.2f%% (bound +/-%.0f%%)%s"
         (per_gen_ms (attributed -. idle)) (per_gen_ms idle)
         (per_gen_ms residual) sp.lanes (per_gen_ms w_tel) residual_pct
         (100. *. closure_bound)
         (if residual < 0. then "; negative: double counting" else ""));
    List.iter
      (fun l -> metric ("self." ^ l ^ ".ms_per_gen") (per_gen_ms (self_of l)) "ms")
      layers;
    metric "qmc.residual.ms_per_gen" (per_gen_ms residual) "ms";
    metric "closure.residual_pct" residual_pct "%";
    metric "qmc.domain_idle_frac" (if budget > 0. then idle /. budget else 0.) "fraction";
    List.iter
      (fun k -> metric ("timer." ^ k ^ ".ms_per_gen") (per_gen_ms (find k).incl_s) "ms")
      [ "Bspline-vgh"; "Bspline-v"; "SPO-vgl"; "DistTable"; "J1"; "J2"; "DetUpdate"; "Other" ];
    let per_call name spans =
      let c = List.fold_left (fun a k -> a + (find k).calls) 0 spans in
      let t = sum (List.map (fun k -> (find k).incl_s) spans) in
      metric (name ^ ".us_per_call") (if c > 0 then 1e6 *. t /. float_of_int c else 0.) "us";
      metric (name ^ ".calls_per_gen") (float_of_int c /. g) "count"
    in
    per_call "spline.vgl_batch" [ "bench.spline.vgl_batch" ];
    per_call "particle.prepare" [ "bench.particle.prepare" ];
    per_call "particle.propose" [ "bench.particle.propose" ];
    per_call "wavefunction.grad" [ "bench.wavefunction.grad" ];
    per_call "wavefunction.ratio_grad" [ "bench.wavefunction.ratio_grad" ];
    per_call "wavefunction.commit" [ "bench.wavefunction.commit" ];
    per_call "hamiltonian.measure" [ "bench.hamiltonian.measure" ];
    per_call "qmc.sweep" [ "bench.qmc.sweep"; "crowd.sweep" ];
    per_call "qmc.restore_walker" [ "bench.qmc.restore_walker" ];
    per_call "qmc.save_walker" [ "bench.qmc.save_walker" ];
    metric "qmc.branch.ms_per_gen" (per_gen_ms (find "dmc.branch").incl_s) "ms";
    metric "qmc.checkpoint.ms_per_gen"
      (per_gen_ms ((find "dmc.checkpoint").incl_s +. sp.ckpt_extra))
      "ms";
    metric "qmc.checkpoint_kb" (float_of_int j0.checkpoint_bytes /. 1024.) "KiB";
    let pops = List.concat_map (fun (j : job) -> Array.to_list j.pops) all_t in
    metric "qmc.population_mean"
      (float_of_int (List.fold_left ( + ) 0 pops) /. float_of_int (max 1 (List.length pops)))
      "walkers";
    metric "qmc.engine_state_kb" (float_of_int j0.engine_bytes /. 1024.) "KiB";
    metric "particle.walker_msg_kb" (float_of_int j0.walker_msg_bytes /. 1024.) "KiB";
    metric "spline.table_mb" (float_of_int sys.System.spo.Spo.bytes /. 1048576.) "MiB";
    let total_gens = float_of_int (List.length all_t * (wl.warmup + wl.gens)) in
    let ex f = float_of_int (List.fold_left (fun a (j : job) -> a + f j) 0 all_t) in
    metric "dist.rank_gen.ms_per_gen" (per_gen_ms sp.rank_gen_max) "ms";
    metric "dist.coord.ms_per_gen"
      (match wl.driver with
      | Ranks _ -> per_gen_ms (sp.wall_span -. sp.rank_gen_max)
      | _ -> 0.)
      "ms";
    metric "dist.exchange_msgs_per_gen" (ex (fun j -> j.exchange_msgs) /. total_gens) "count";
    metric "dist.exchange_kb_per_gen"
      (ex (fun j -> j.exchange_bytes) /. 1024. /. total_gens)
      "KiB";
    metric "dist.heartbeat_rtt_ms_p50"
      (1e3 *. quantile 0.5 (List.concat_map (fun (j : job) -> j.rtts) all_t))
      "ms";
    let sps_t = throughput all_t in
    metric "trace_overhead_pct"
      (if sps_u > 0. then 100. *. (sps_u -. sps_t) /. sps_u else 0.)
      "%";
    add_info "samples_per_s_untraced" (num sps_u);
    add_info "samples_per_s_traced" (num sps_t);
    add_info "traced_jobs" (num (float_of_int (List.length all_t)))
  end;
  Hashtbl.iter
    (fun name (pass, total, last_fail) ->
      check name (pass = total)
        (Printf.sprintf "%d/%d jobs pass%s" pass total
           (match last_fail with Some d -> "; " ^ d | None -> "")))
    tally;
  let checks = List.sort compare !checks in
  let correct = List.for_all (fun (_, ok, _) -> ok) checks in
  (* a run whose output check fails fails every operation in it *)
  if not correct then failed := !attempted;
  Jsonx.Obj
    [
      ("correct", Jsonx.Bool correct);
      ("attempted", num (float_of_int !attempted));
      ("failed", num (float_of_int !failed));
      ( "metrics",
        Jsonx.Obj
          (List.rev_map
             (fun (n, v, u) -> (n, Jsonx.Obj [ ("value", num v); ("unit", str u) ]))
             !metrics) );
      ( "checks",
        Jsonx.Arr
          (List.map
             (fun (n, ok, d) ->
               Jsonx.Obj [ ("name", str n); ("ok", Jsonx.Bool ok); ("detail", str d) ])
             checks) );
      ("info", Jsonx.Obj (("ocaml", str Sys.ocaml_version) :: List.rev !info));
    ]

(* ---------- command line ---------- *)

let () =
  let mode = ref "" and workload = ref "" and seed = ref 1 in
  let seconds = ref 10. and trace = ref 0 and tmp = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--tmp", Arg.Set_string tmp, "DIR scratch directory");
    ]
    (fun m -> mode := m)
    "bench.exe (setup|measure) --workload NAME --seed N [--seconds S] [--trace 0|1]";
  let wl = find_workload !workload in
  let out =
    match !mode with
    | "setup" ->
        let setup_s, build_s, factory_s = setup_record wl ~seed:!seed ~tmp:!tmp in
        Jsonx.Obj
          [ ("setup_s", num setup_s); ("build_s", num build_s); ("factory_s", num factory_s) ]
    | "measure" ->
        measure ~wl ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~tmp:!tmp
    | m ->
        prerr_endline ("bench: unknown mode " ^ m);
        exit 2
  in
  print_endline (Jsonx.to_string out)
