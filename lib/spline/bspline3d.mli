open Oqmc_containers

(** Periodic tricubic B-spline tables holding all single-particle orbitals
    on one shared grid with the orbital index innermost (einspline's
    multi-spline layout) — the paper's Bspline-v / Bspline-vgh kernels.
    Coefficients live at the build's storage precision; accumulation is in
    double.  Positions are fractional supercell coordinates [s ∈ [0,1)³]
    and derivatives are with respect to [s]; the SPO layer applies the
    lattice metric. *)

module Make (R : Precision.REAL) : sig
  module A : module type of Aligned.Make (R)

  type t

  type vgh_buf = {
    v : float array;
    gx : float array;
    gy : float array;
    gz : float array;
    hxx : float array;
    hxy : float array;
    hxz : float array;
    hyy : float array;
    hyz : float array;
    hzz : float array;
  }

  val create : nx:int -> ny:int -> nz:int -> n_orb:int -> t
  (** Zero table on an [nx × ny × nz] periodic grid.
      @raise Invalid_argument if any dimension is below 4 or [n_orb < 1]. *)

  val n_orb : t -> int
  val dims : t -> int * int * int

  val bytes : t -> int
  (** Allocated coefficient storage. *)

  val make_vgh_buf : t -> vgh_buf
  (** Double-precision result buffers sized for this table. *)

  val set_base : t -> orb:int -> i:int -> j:int -> k:int -> float -> unit
  (** Write one base coefficient, maintaining the periodic wrap layers.
      @raise Invalid_argument outside the base grid. *)

  val get_base : t -> orb:int -> i:int -> j:int -> k:int -> float

  val fill : t -> (orb:int -> i:int -> j:int -> k:int -> float) -> unit
  (** Set every base coefficient directly (synthetic tables). *)

  val fit_periodic :
    t -> samples:(orb:int -> ix:int -> iy:int -> iz:int -> float) -> unit
  (** Prefilter so the spline interpolates the given grid samples
      (separable cyclic-tridiagonal solves per dimension). *)

  val eval_v : t -> u0:float -> u1:float -> u2:float -> float array -> unit
  (** Bspline-v: values of all orbitals into a caller array of length
      [>= n_orb]. *)

  val eval_vgh : t -> u0:float -> u1:float -> u2:float -> vgh_buf -> unit
  (** Bspline-vgh: values, fractional-coordinate gradients and Hessian
      components of all orbitals. *)

  val eval_v_at :
    t -> u0:float -> u1:float -> u2:float -> float array -> orb_off:int ->
    unit
  (** {!eval_v} into orbitals [orb_off, orb_off + n_orb t) of a wider
      array — how a tiled table evaluates each tile in place. *)

  val eval_vgh_at :
    t -> u0:float -> u1:float -> u2:float -> vgh_buf -> orb_off:int -> unit
  (** {!eval_vgh} into orbitals [orb_off, orb_off + n_orb t) of a wider
      buffer. *)

  type vgh_batch = {
    cap : int;
    bix : int array;
    biy : int array;
    biz : int array;
    bwx : float array;
    bwy : float array;
    bwz : float array;
    bdx : float array;
    bdy : float array;
    bdz : float array;
    bsx : float array;
    bsy : float array;
    bsz : float array;
    bprod : float array;
    outs : vgh_buf array;
  }
  (** Crowd-sized scratch arena for {!eval_vgh_batch}: per-slot stencil
      origins, flat 1-D weight vectors (offset [4*slot]), the staged
      weight products ([bprod], 640 per slot) and one result buffer per
      slot.  Allocate once per domain, reuse forever. *)

  type v_batch = {
    vcap : int;
    vix : int array;
    viy : int array;
    viz : int array;
    vwx : float array;
    vwy : float array;
    vwz : float array;
    vouts : float array array;
  }

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
  (** Batched Bspline-vgh over the first [n] fractional positions: each
      walker's 1-D weights are computed once into the arena, then the
      coefficient blocks are streamed with zero allocation.  Results land
      in [outs.(0..n-1)].  Per walker the arithmetic matches {!eval_vgh}
      exactly (bit-identical on the double path).
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

  (** {2 Batch phases}

      The batched kernels split into a position-staging phase 1 (stencil
      origins + 1-D weights, no coefficient traffic) and a per-slot
      accumulation phase 2 that reads the coefficients straight out of
      the table.  They are exposed so the tiled layout
      ({!Bspline3d_tiled}) can stage once per batch and accumulate once
      per tile into an orbital segment of a full-width buffer, running
      the very code of {!eval_vgh_batch}. *)

  val stage_v_batch :
    t ->
    v_batch ->
    n:int ->
    u0:float array ->
    u1:float array ->
    u2:float array ->
    unit
  (** Phase 1 of {!eval_v_batch}; only the grid dimensions of [t] are
      read.  @raise Invalid_argument if [n > cap]. *)

  val stage_vgh_batch :
    t ->
    vgh_batch ->
    n:int ->
    u0:float array ->
    u1:float array ->
    u2:float array ->
    unit
  (** Phase 1 of {!eval_vgh_batch}. *)

  val stage_vgh_products : vgh_batch -> s:int -> unit
  (** Stage the 64×10 vgh weight products for slot [s] into [bprod]
      (requires a staged phase 1 for [s]); the exact expressions of
      {!eval_vgh}. *)

  val accum_vgh_slot :
    t -> vgh_batch -> s:int -> buf:vgh_buf -> orb_off:int -> unit
  (** Phase 2 of {!eval_vgh_batch} for walker slot [s]: zero, accumulate
      and metric-scale orbitals [orb_off, orb_off + n_orb t) of [buf]
      from this table.  Requires {!stage_vgh_products} for [s]. *)

  val accum_v_slot :
    t -> v_batch -> s:int -> out:float array -> orb_off:int -> unit
  (** Phase 2 of {!eval_v_batch} for walker slot [s] (no product staging
      needed). *)

  val table_bytes :
    nx:int -> ny:int -> nz:int -> n_orb:int -> elt_bytes:int -> int
  (** Analytic table size used by the memory-footprint accounting for
      workloads too large to allocate. *)
end
