open Oqmc_containers
open Oqmc_particle

(** B-spline-backed SPO engine: maps Cartesian positions to fractional
    coordinates and pushes the table's fractional derivatives through the
    cell metric, so the determinant sees Cartesian gradients and
    laplacians.  The table is read-only and shared by every walker and
    thread.  It is always the tiled (array-of-SoA) table; the flat
    einspline layout is its one-tile case, and every layout charges the
    "Bspline-v"/"Bspline-vgh" Timers keys. *)

module Make (R : Precision.REAL) : sig
  module T3 : module type of Oqmc_spline.Bspline3d_tiled.Make (R)

  val create : table:T3.t -> lattice:Lattice.t -> Spo.t
  (** Results are bit-identical for every tile size of [table]. *)
end
