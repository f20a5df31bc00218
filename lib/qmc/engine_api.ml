open Oqmc_containers
open Oqmc_particle
open Oqmc_rng

(* Variant-erased compute engine.

   Each build variant instantiates the engine functor at its storage
   precision and update policy and exposes this uniform record, so the
   VMC/DMC drivers, population control and benchmarks are written once.
   An engine is the per-thread pair (E_th, Psi_th) of the paper's Fig. 4:
   it owns mutable state and must never be shared between domains. *)

type sweep_result = { accepted : int; proposed : int }

(* The individual stages of one particle-by-particle move.  The scalar
   [sweep] is their composition ({!sweep_of_pbp}) and stays the
   reference oracle that the crowd pipeline is tested against. *)
type pbp = {
  prepare : int -> unit; (* distance-table prepare for electron k *)
  current_pos : int -> Vec3.t;
  grad : int -> Vec3.t; (* ∇ log Ψ at the current position *)
  propose : int -> Vec3.t -> unit; (* ParticleSet propose + table move *)
  ratio_grad : int -> float * Vec3.t; (* at the proposed position *)
  accept : int -> ratio:float -> unit;
  reject : int -> unit;
}

(* The move rule of Alg. 1 (L5-L9), written once: the drifted-Gaussian
   proposal r' = r + τ∇lnΨ(r) + χ with χ ~ N(0, τ), and the Metropolis
   test on |Ψ(r')/Ψ(r)|² times the Green's-function ratio
   G(r←r')/G(r'←r).  The scalar sweep and the crowd pipeline both call
   it, so their per-walker arithmetic and RNG draw order (gaussian, then
   uniform, per electron) are the same by construction. *)
module Move = struct
  (* Draw χ and return (χ, r'). *)
  let propose rng ~tau (rk : Vec3.t) (gold : Vec3.t) =
    let sqrt_tau = sqrt tau in
    let cx, cy, cz = Xoshiro.gaussian_vec3 rng in
    let chi = Vec3.make (sqrt_tau *. cx) (sqrt_tau *. cy) (sqrt_tau *. cz) in
    (chi, Vec3.add rk (Vec3.add (Vec3.scale tau gold) chi))

  (* Green's-function-corrected acceptance of the move rk → newpos with
     wavefunction [ratio] and ∇lnΨ(newpos) = [gnew]; draws the uniform. *)
  let accept rng ~tau ~(rk : Vec3.t) ~(newpos : Vec3.t) ~(chi : Vec3.t)
      ~ratio ~(gnew : Vec3.t) =
    let back = Vec3.sub (Vec3.sub rk newpos) (Vec3.scale tau gnew) in
    let log_gf = -.Vec3.norm2 chi /. (2. *. tau) in
    let log_gb = -.Vec3.norm2 back /. (2. *. tau) in
    let p = ratio *. ratio *. exp (log_gb -. log_gf) in
    Xoshiro.uniform rng < p
end

(* One particle-by-particle sweep over [n] electrons as the composition
   of the PbP stages and the move rule. *)
let sweep_of_pbp (pb : pbp) ~n rng ~tau =
  let accepted = ref 0 in
  for k = 0 to n - 1 do
    pb.prepare k;
    let gold = pb.grad k in
    let rk = pb.current_pos k in
    let chi, newpos = Move.propose rng ~tau rk gold in
    pb.propose k newpos;
    let ratio, gnew = pb.ratio_grad k in
    if Move.accept rng ~tau ~rk ~newpos ~chi ~ratio ~gnew then begin
      incr accepted;
      pb.accept k ~ratio
    end
    else pb.reject k
  done;
  { accepted = !accepted; proposed = n }

(* Full-pipeline crowd batching.

   [crowd_hook] is the variant-private handle an engine publishes so a
   crowd driver can hand the WHOLE crowd back to the engine's own batched
   move stages: each build variant extends the type with a constructor
   wrapping its internal per-walker state, and [make_crowd_stages]
   recognizes its own constructor (and only it — a foreign or [No_crowd_hook]
   slot makes it return [None], telling the crowd to run each slot's
   scalar [sweep] in turn).

   A [crowd_stage] runs one stage of the PbP move for crowd slots
   [0..m-1] of electron [k] in a single fused pass per kernel —
   distance-table rows, Jastrow rows and determinant ratio dots each
   become one batched call per crowd instead of one per walker.  Slot
   arithmetic and ordering are exactly the scalar sweep's, so the
   double-precision path stays bit-identical to [sweep].  [slots] are the
   crowd's batched SPO results, one per walker. *)
type crowd_hook = ..
type crowd_hook += No_crowd_hook

type crowd_stage = {
  cs_prepare : k:int -> m:int -> unit;
      (* refresh distance-table rows k at the current positions *)
  cs_grad :
    k:int ->
    m:int ->
    slots:Oqmc_wavefunction.Spo.vgl array ->
    gx:float array ->
    gy:float array ->
    gz:float array ->
    unit;
      (* accumulate ∇ log Ψ at the current positions into gx/gy/gz
         (caller zero-initializes) *)
  cs_propose : k:int -> m:int -> pos:Vec3.t array -> unit;
      (* ParticleSet propose + batched table move rows *)
  cs_ratio_grad :
    k:int ->
    m:int ->
    slots:Oqmc_wavefunction.Spo.vgl array ->
    ratio:float array ->
    gx:float array ->
    gy:float array ->
    gz:float array ->
    unit;
      (* multiply ratios (caller initializes to 1.) and accumulate the
         proposed-position gradients *)
  cs_commit : k:int -> m:int -> acc:bool array -> ratio:float array -> unit;
      (* per-slot accept/reject with the scalar choreography: components,
         log Ψ, tables, ParticleSet *)
}

type t = {
  label : string;
  n_electrons : int;
  timers : Timers.t;
  refresh : unit -> float;
      (* Rebuild distance tables and all wavefunction state from current
         positions (double-precision recompute); returns log Ψ. *)
  sweep : Oqmc_rng.Xoshiro.t -> tau:float -> sweep_result;
      (* One particle-by-particle drift-and-diffusion sweep (Alg. 1,
         L4-L10). *)
  measure : unit -> float;
      (* Local energy at the current configuration (refreshes what the
         update policy leaves stale). *)
  load_walker : Walker.t -> unit;
      (* Positions from the walker + full recompute (first touch). *)
  restore_walker : Walker.t -> unit;
      (* Positions + wavefunction state from the walker's buffer (the
         store-over-compute fast path; tables are still rebuilt). *)
  save_walker : Walker.t -> unit;
      (* Positions, log Ψ and serialized state back into the walker. *)
  register_walker : Walker.t -> unit;
      (* Size and fill a fresh walker's buffer. *)
  log_psi : unit -> float;
  randomize : Oqmc_rng.Xoshiro.t -> unit;
      (* Fresh uniform electron configuration + full recompute; used to
         seed independent walkers. *)
  memory_bytes : unit -> int;
      (* Persistent per-engine + per-walker-state footprint (excludes the
         shared read-only SPO table). *)
  pbp : pbp;
      (* The stages of one PbP move; [sweep] is their composition. *)
  make_vgl_batch : int -> Oqmc_wavefunction.Spo.vgl_batch;
      (* Crowd-sized batch context over this engine's SPO set; scratch
         is owned by the context, one per domain. *)
  crowd_hook : crowd_hook;
      (* Variant-private handle to this engine's batched-pipeline state;
         [No_crowd_hook] when the variant has no batched pipeline. *)
  make_crowd_stages : crowd_hook array -> crowd_stage option;
      (* Build the fused move stages over a crowd of sibling engines
         (one hook per slot, this engine's included); [None] when any
         slot is foreign or the variant cannot batch (crowds then run
         each slot's scalar [sweep]). *)
}

(* Drift of the incrementally-maintained log Ψ against a full
   double-precision recompute — the quantity the paper's periodic
   refresh bounds.  Leaves the engine in the refreshed state. *)
let drift (e : t) =
  let incremental = e.log_psi () in
  let fresh = e.refresh () in
  Float.abs (incremental -. fresh)
