open Oqmc_containers

(** Single-particle-orbital engine interface (QMCPACK's SPOSet): evaluates
    all orbitals — values (Bspline-v) or values + Cartesian gradients +
    laplacians (SPO-vgl) — at one electron position, into caller-owned
    double-precision buffers.  Engines are records of closures, dispatched
    at run time as QMCPACK dispatches SPOSet virtually.

    Batched contexts evaluate a whole crowd of positions per call so a
    native backend can amortize stencil/weight work across walkers; a
    context owns its scratch and result slots and must never be shared
    between domains. *)

type vgl = {
  v : float array;
  gx : float array;
  gy : float array;
  gz : float array;
  lap : float array;
}

type vgl_batch = {
  cap : int;
  slots : vgl array;
  run : Vec3.t array -> int -> unit;
      (** [run pos n] evaluates [pos.(0..n-1)] into [slots.(0..n-1)]. *)
}

type v_batch = {
  vcap : int;
  vslots : float array array;
  vrun : Vec3.t array -> int -> unit;
}

type t = {
  n_orb : int;
  label : string;
  eval_v : Vec3.t -> float array -> unit;
  eval_vgl : Vec3.t -> vgl -> unit;
  make_vgl_batch : int -> vgl_batch;
      (** Fresh batch context with the given capacity (>= 1). *)
  make_v_batch : int -> v_batch;
  bytes : int;  (** backing-table storage, shared across walkers/threads *)
}

val make_vgl : int -> vgl
val grad_of : vgl -> int -> Vec3.t

val make :
  ?make_vgl_batch:(int -> vgl_batch) ->
  ?make_v_batch:(int -> v_batch) ->
  n_orb:int ->
  label:string ->
  eval_v:(Vec3.t -> float array -> unit) ->
  eval_vgl:(Vec3.t -> vgl -> unit) ->
  bytes:int ->
  unit ->
  t
(** Smart constructor: engines without native batched kernels get serial
    fallbacks that loop the scalar evaluators (identical results, no
    amortization). *)
