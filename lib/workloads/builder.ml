open Oqmc_containers
open Oqmc_particle
open Oqmc_rng
open Oqmc_wavefunction
open Oqmc_hamiltonian
open Oqmc_core

(* Turn a Table 1 spec into a runnable System.

   The paper's DFT-generated orbital tables and pseudopotentials are
   proprietary inputs; per the substitution rule the builder synthesizes
   a B-spline table of the right shape filled with deterministic smooth
   pseudo-random coefficients (kernel cost depends on table dimensions,
   layout and precision — not coefficient values) and Gaussian-shell
   pseudopotential channels.  [reduction] scales the problem down
   uniformly — electron count, ion count, orbital count and grid — so the
   full PbyP machinery runs in laptop-scale benchmarks while Table 1 and
   the memory model use the unscaled numbers. *)

type scaled = {
  spec : Spec.t;
  reduction : int;
  n_el : int;
  n_ion : int;
  n_spo : int;
  grid : int * int * int;
  box : float * float * float;
}

let scale (spec : Spec.t) ~reduction =
  if reduction < 1 then invalid_arg "Builder.scale: reduction < 1";
  let n_el = max 4 (spec.Spec.n / reduction / 2 * 2) in
  let n_ion =
    max (List.length spec.Spec.species) (spec.Spec.n_ion / reduction)
  in
  let n_spo = max (n_el / 2) (spec.Spec.n_spos / reduction) in
  let gscale = Float.cbrt (float_of_int reduction) in
  let gdim d = max 8 (int_of_float (float_of_int d /. gscale)) in
  let nx, ny, nz = spec.Spec.fft_grid in
  let lscale = 1. /. gscale in
  let bx, by, bz = spec.Spec.box in
  {
    spec;
    reduction;
    n_el;
    n_ion;
    n_spo;
    grid = (gdim nx, gdim ny, gdim nz);
    box = (bx *. lscale, by *. lscale, bz *. lscale);
  }

(* Near-cubic grid placement of [n] ions inside the box, species assigned
   round-robin (rock-salt-like alternation for NiO). *)
let ion_positions (bx, by, bz) n =
  let per_dim = int_of_float (Float.ceil (Float.cbrt (float_of_int n))) in
  let positions = ref [] in
  let count = ref 0 in
  for i = 0 to per_dim - 1 do
    for j = 0 to per_dim - 1 do
      for k = 0 to per_dim - 1 do
        if !count < n then begin
          let f d l =
            (float_of_int d +. 0.5) /. float_of_int per_dim *. l
          in
          positions := Vec3.make (f i bx) (f j by) (f k bz) :: !positions;
          incr count
        end
      done
    done
  done;
  Array.of_list (List.rev !positions)

(* The same synthetic orbital table at either storage precision: the
   [precision=] knob selects where the B-spline coefficients live (f32
   halves table bytes and bandwidth, per the paper's mixed-precision
   scheme) while the coefficient values themselves are computed in
   double either way.  The functor instantiations are precision-erased by
   [Spo.t]'s runtime closures, so both produce the same System shape.

   [tile] is the orbital tile of the (array-of-SoA) table; the flat
   layout is the one-tile table.  Every tile size is filled through the
   same global-orbital [fill] callback, so its coefficients — and
   therefore every evaluation — are bit-identical to the flat table's. *)
module Spline_builder (R : Precision.REAL) = struct
  module T = Oqmc_spline.Bspline3d_tiled.Make (R)
  module SpoB = Spo_bspline.Make (R)

  let coeff_fn ~seed ~grid ~n_spo =
    let nx, ny, nz = grid in
    let rng = Xoshiro.create seed in
    (* Each orbital: a random superposition of a few plane waves evaluated
       on the grid; filling coefficients directly (rather than
       prefiltering) keeps construction O(grid × n_spo). *)
    let n_modes = 4 in
    let modes =
      Array.init n_spo (fun _ ->
          Array.init n_modes (fun _ ->
              ( float_of_int (1 + Xoshiro.int rng 3),
                float_of_int (Xoshiro.int rng 3),
                float_of_int (Xoshiro.int rng 3),
                Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.,
                Xoshiro.uniform_range rng ~lo:0. ~hi:(2. *. Float.pi) )))
    in
    fun ~orb ~i ~j ~k ->
      let x = float_of_int i /. float_of_int nx in
      let y = float_of_int j /. float_of_int ny in
      let z = float_of_int k /. float_of_int nz in
      let acc = ref (if orb = 0 then 1.0 else 0.) in
      Array.iter
        (fun (gx, gy, gz, amp, phase) ->
          acc :=
            !acc
            +. amp
               *. cos
                    ((2. *. Float.pi
                     *. ((gx *. x) +. (gy *. y) +. (gz *. z)))
                    +. phase))
        modes.(orb);
      !acc

  let build ~seed ~grid ~n_spo ~tile ~lattice =
    let nx, ny, nz = grid in
    let table = T.create ~nx ~ny ~nz ~n_orb:n_spo ~tile in
    T.fill table (coeff_fn ~seed ~grid ~n_spo);
    SpoB.create ~table ~lattice
end

module Sp32 = Spline_builder (Precision.F32)
module Sp64 = Spline_builder (Precision.F64)

let synthetic_spo ?(precision = `F32) ?(layout = `Flat) ?(tile = 0) ~seed
    ~grid ~n_spo ~lattice () =
  let tile =
    match layout with
    | `Flat -> n_spo
    | `Tiled -> if tile <= 0 then 32 else tile
  in
  match precision with
  | `F32 -> Sp32.build ~seed ~grid ~n_spo ~tile ~lattice
  | `F64 -> Sp64.build ~seed ~grid ~n_spo ~tile ~lattice

(* Gaussian-shell pseudopotential channels per species. *)
let nlpp_channels (species : Spec.species list) =
  Array.of_list
    (List.map
       (fun (s : Spec.species) ->
         if not s.Spec.pseudopotential then { Nlpp.channels = [] }
         else begin
           let strength = 0.4 +. (0.04 *. s.Spec.z_eff) in
           let width = 0.9 /. sqrt s.Spec.z_eff in
           let cutoff = 3. *. width in
           let l = if s.Spec.z_eff > 10. then 2 else 1 in
           {
             Nlpp.channels =
               [
                 {
                   Nlpp.l;
                   v = (fun r -> strength *. exp (-.(r /. width) ** 2.));
                   cutoff;
                 };
               ];
           }
         end)
       species)

(* Build the runnable System for a (possibly scaled) workload. *)
let system ?(seed = 20170101) ?(with_nlpp = true) ?(with_jastrow = true)
    ?(precision = `F32) ?(layout = `Flat) ?(tile = 0) (s : scaled) : System.t
    =
  let bx, by, bz = s.box in
  let lattice = Lattice.orthorhombic bx by bz in
  let positions = ion_positions s.box s.n_ion in
  let species = s.spec.Spec.species in
  let nsp = List.length species in
  (* Round-robin species assignment over grid sites alternates species
     along the fastest axis — rock-salt-like for two species. *)
  let groups =
    List.mapi
      (fun si (sp : Spec.species) ->
        let mine =
          List.filteri
            (fun i _ -> i mod nsp = si)
            (Array.to_list positions)
        in
        {
          System.sname = sp.Spec.sp_name;
          charge = sp.Spec.z_eff;
          positions = mine;
        })
      species
  in
  let spo =
    synthetic_spo ~precision ~layout ~tile ~seed ~grid:s.grid ~n_spo:s.n_spo
      ~lattice ()
  in
  let cutoff = Lattice.wigner_seitz_radius lattice in
  let j2 = if with_jastrow then Some (Jastrow_sets.ee_set ~cutoff) else None in
  let j1 =
    if with_jastrow then Some (Jastrow_sets.ion_set ~cutoff species) else None
  in
  let has_pp = List.exists (fun sp -> sp.Spec.pseudopotential) species in
  let nlpp =
    if with_nlpp && has_pp then Some (nlpp_channels species) else None
  in
  System.validate
    {
      System.name =
        Printf.sprintf "%s/r%d" s.spec.Spec.wname s.reduction;
      lattice;
      n_up = s.n_el / 2;
      n_down = s.n_el / 2;
      ions = groups;
      spo;
      j1;
      j2;
      ham = { System.coulomb = true; ewald = false; harmonic = None; nlpp };
    }

let make ?(seed = 20170101) ?(with_nlpp = true) ?(with_jastrow = true)
    ?(reduction = 8) ?(precision = `F32) ?(layout = `Flat) ?(tile = 0)
    (spec : Spec.t) : System.t =
  system ~seed ~with_nlpp ~with_jastrow ~precision ~layout ~tile
    (scale spec ~reduction)
