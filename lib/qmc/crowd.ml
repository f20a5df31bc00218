open Oqmc_containers
open Oqmc_rng

(* A crowd of walkers marching in lockstep through the PbP sweep — the
   hierarchical-parallelism layer of Luo et al. 2022 on top of the
   paper's walker-per-thread design.  One crowd lives inside one domain:
   it owns [size] engines (one mutable engine state per resident walker)
   and advances every walker through electron k together.

   There is one batched move path, the full pipeline: when every engine
   publishes a matching crowd hook, EVERY move kernel is batched —
   distance-table rows, one-/two-body Jastrow rows, determinant ratio
   dots and inverse updates each run as one fused call per crowd per
   stage, on top of the two batched SPO evaluations.  A crowd whose
   engines decline the hook (the Store/Ref layout has no batched table
   kernels) runs each slot's scalar [Engine_api.sweep] in turn, as the
   paper's baseline did.

   Both paths apply the one move rule ([Engine_api.Move]) with the same
   per-walker RNG draw order (gaussian at k, then uniform at k), so
   crowd trajectories on the double-precision path are bit-identical to
   the scalar reference. *)

type pipe = {
  stages : Engine_api.crowd_stage;
  batch : Oqmc_wavefunction.Spo.vgl_batch;
  pos : Vec3.t array; (* current positions of electron k, per slot *)
  newpos : Vec3.t array;
  chi : Vec3.t array; (* gaussian displacements, for the GF correction *)
  accepted : int array;
  ratio : float array;
  gx : float array;
  gy : float array;
  gz : float array;
  acc : bool array;
}

type t = { engines : Engine_api.t array; pipe : pipe option }

let create ~(factory : int -> Engine_api.t) ~base ~size () =
  if size < 1 then invalid_arg "Crowd.create: size < 1";
  let engines = Array.init size (fun s -> factory (base + s)) in
  let pipe =
    engines.(0).Engine_api.make_crowd_stages
      (Array.map (fun e -> e.Engine_api.crowd_hook) engines)
    |> Option.map (fun stages ->
           {
             stages;
             batch = engines.(0).Engine_api.make_vgl_batch size;
             pos = Array.make size Vec3.zero;
             newpos = Array.make size Vec3.zero;
             chi = Array.make size Vec3.zero;
             accepted = Array.make size 0;
             ratio = Array.make size 1.;
             gx = Array.make size 0.;
             gy = Array.make size 0.;
             gz = Array.make size 0.;
             acc = Array.make size false;
           })
  in
  { engines; pipe }

let size t = Array.length t.engines
let engine t s = t.engines.(s)
let pipelined t = Option.is_some t.pipe

(* The full pipeline: every engine-side kernel goes through the fused
   crowd stages; the move rule runs per slot between them. *)
let sweep_pipeline t (p : pipe) ~active ~(rng : int -> Xoshiro.t) ~tau =
  let cs = p.stages in
  let n = t.engines.(0).Engine_api.n_electrons in
  let timers0 = t.engines.(0).Engine_api.timers in
  Array.fill p.accepted 0 active 0;
  for k = 0 to n - 1 do
    cs.Engine_api.cs_prepare ~k ~m:active;
    for s = 0 to active - 1 do
      p.pos.(s) <- (t.engines.(s).Engine_api.pbp).Engine_api.current_pos k
    done;
    Timers.time timers0 "Bspline-vgh" (fun () ->
        p.batch.Oqmc_wavefunction.Spo.run p.pos active);
    Array.fill p.gx 0 active 0.;
    Array.fill p.gy 0 active 0.;
    Array.fill p.gz 0 active 0.;
    cs.Engine_api.cs_grad ~k ~m:active
      ~slots:p.batch.Oqmc_wavefunction.Spo.slots ~gx:p.gx ~gy:p.gy ~gz:p.gz;
    for s = 0 to active - 1 do
      let gold = Vec3.make p.gx.(s) p.gy.(s) p.gz.(s) in
      let chi, newpos = Engine_api.Move.propose (rng s) ~tau p.pos.(s) gold in
      p.chi.(s) <- chi;
      p.newpos.(s) <- newpos
    done;
    cs.Engine_api.cs_propose ~k ~m:active ~pos:p.newpos;
    Timers.time timers0 "Bspline-vgh" (fun () ->
        p.batch.Oqmc_wavefunction.Spo.run p.newpos active);
    Array.fill p.ratio 0 active 1.;
    Array.fill p.gx 0 active 0.;
    Array.fill p.gy 0 active 0.;
    Array.fill p.gz 0 active 0.;
    cs.Engine_api.cs_ratio_grad ~k ~m:active
      ~slots:p.batch.Oqmc_wavefunction.Spo.slots ~ratio:p.ratio ~gx:p.gx
      ~gy:p.gy ~gz:p.gz;
    for s = 0 to active - 1 do
      let acc =
        Engine_api.Move.accept (rng s) ~tau ~rk:p.pos.(s)
          ~newpos:p.newpos.(s) ~chi:p.chi.(s) ~ratio:p.ratio.(s)
          ~gnew:(Vec3.make p.gx.(s) p.gy.(s) p.gz.(s))
      in
      if acc then p.accepted.(s) <- p.accepted.(s) + 1;
      p.acc.(s) <- acc
    done;
    cs.Engine_api.cs_commit ~k ~m:active ~acc:p.acc ~ratio:p.ratio
  done;
  Array.init active (fun s ->
      { Engine_api.accepted = p.accepted.(s); proposed = n })

(* One sweep of all [active] resident walkers ([rng s] is walker s's
   stream).  Returns per-slot sweep results. *)
let sweep t ~active ~(rng : int -> Xoshiro.t) ~tau =
  if active < 1 || active > size t then invalid_arg "Crowd.sweep: active";
  Oqmc_obs.Trace.with_span
    ~args:[ ("active", string_of_int active) ]
    "crowd.sweep"
  @@ fun () ->
  match t.pipe with
  | Some p -> sweep_pipeline t p ~active ~rng ~tau
  | None ->
      (* Each slot times its kernels on its own engine's timers; fold
         them into slot 0's, which the runner merges per domain (as the
         pipeline times its batched stages on slot 0's). *)
      let timers0 = t.engines.(0).Engine_api.timers in
      Array.init active (fun s ->
          let e = t.engines.(s) in
          let r = e.Engine_api.sweep (rng s) ~tau in
          if e.Engine_api.timers != timers0 then begin
            Timers.merge ~into:timers0 e.Engine_api.timers;
            Timers.reset e.Engine_api.timers
          end;
          r)
