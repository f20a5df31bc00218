open Oqmc_containers

(** Tiled (array-of-SoA) orbital table — the paper's future-work tiling
    proposal, and the one orbital-table layout behind every B-spline SPO.
    Orbitals are split into fixed-size tiles, each with its own
    contiguous multi-spline block, bounding the per-stencil stride and
    exposing a thread-parallel outer loop.  The flat einspline layout is
    the one-tile case ([tile >= n_orb]), which costs exactly the
    {!Bspline3d} kernels.  Every tile is evaluated in place into its
    orbital segment of the caller's buffer, so the table holds no scratch
    and is safe to share across domains.  Results are bit-identical to
    the scalar {!Bspline3d} kernels for every tile size: the batched
    kernels stage positions once and accumulate the same doubles in the
    same order per tile. *)

module Make (R : Precision.REAL) : sig
  module B : module type of Bspline3d.Make (R)

  type t

  type vgh_batch = B.vgh_batch
  (** The flat module's arenas, with full-width ([n_orb]-long) per-slot
      result buffers. *)

  type v_batch = B.v_batch

  val create : nx:int -> ny:int -> nz:int -> n_orb:int -> tile:int -> t
  (** A [tile] at or above [n_orb] gives the one-tile (flat) table.
      @raise Invalid_argument for non-positive sizes. *)

  val n_orb : t -> int
  val n_tiles : t -> int
  val tile_size : t -> int
  val dims : t -> int * int * int
  val bytes : t -> int

  val set_base : t -> orb:int -> i:int -> j:int -> k:int -> float -> unit
  val get_base : t -> orb:int -> i:int -> j:int -> k:int -> float
  val fill : t -> (orb:int -> i:int -> j:int -> k:int -> float) -> unit
  (** Set every base coefficient from a pure function of the global
      orbital and grid indices; tiles are filled one after another. *)

  val fit_periodic :
    t -> samples:(orb:int -> ix:int -> iy:int -> iz:int -> float) -> unit

  val eval_v : t -> u0:float -> u1:float -> u2:float -> float array -> unit
  val eval_vgh : t -> u0:float -> u1:float -> u2:float -> B.vgh_buf -> unit
  val make_vgh_buf : t -> B.vgh_buf

  val make_vgh_batch : t -> cap:int -> vgh_batch
  (** @raise Invalid_argument if [cap < 1]. *)

  val make_v_batch : t -> cap:int -> v_batch

  val eval_vgh_batch :
    t ->
    vgh_batch ->
    n:int ->
    u0:float array ->
    u1:float array ->
    u2:float array ->
    unit
  (** Batched Bspline-vgh: positions are staged once, then the per-tile
      accumulation streams each tile's coefficient block directly from
      its bigarray.  Results land in [outs.(0..n-1)] across the full
      orbital range, bit-identical to the scalar kernels, with zero
      allocation.
      @raise Invalid_argument if [n > cap]. *)

  val eval_v_batch :
    t ->
    v_batch ->
    n:int ->
    u0:float array ->
    u1:float array ->
    u2:float array ->
    unit
  (** Batched Bspline-v into [vouts.(0..n-1)]; same contract as
      {!eval_vgh_batch}. *)
end
