open Oqmc_containers

(* Tiled (AoSoA) orbital table — the paper's future-work proposal
   (Sec. 8.4, after Mathuriya et al. IPDPS'17): split the orbitals into
   tiles of [tile] orbitals, each tile holding its own contiguous
   grid-major coefficient block.  The outer structure is an array over
   tiles (AoS), the inner layout is the SoA multi-spline of {!Bspline3d}
   — an array-of-SoA.  The flat einspline layout is the one-tile case
   ([tile >= n_orb]): it fills through {!Bspline3d.fill} and evaluates
   straight into the caller's buffer, so it costs exactly the
   {!Bspline3d} kernels.

   Every evaluation writes each tile in place into its orbital segment
   of the caller's buffer ({!Bspline3d.eval_vgh_at} and the batched
   {!Bspline3d.accum_vgh_slot}), so the table holds no scratch and is
   safe to share read-only across domains.  The batched kernels stage
   phase 1 (stencil locate + 1-D weights) and the vgh weight products
   once per batch and slot, then accumulate tile by tile.  Each
   orbital's 64-point accumulation is independent of the tile partition
   and consumes the same doubles in the same order as the scalar
   kernels, so results are bit-identical for every tile size. *)

module Make (R : Precision.REAL) = struct
  module B = Bspline3d.Make (R)

  type t = {
    tiles : B.t array;
    tile : int; (* orbitals per tile (last tile may be smaller) *)
    n_orb : int;
  }

  (* The batch arenas are the flat module's: phase-1 staging (origins +
     weights) and the weight products are tile-independent, and the
     per-slot result buffers span the full orbital range. *)
  type vgh_batch = B.vgh_batch
  type v_batch = B.v_batch

  let create ~nx ~ny ~nz ~n_orb ~tile =
    if tile < 1 then invalid_arg "Bspline3d_tiled.create: tile < 1";
    if n_orb < 1 then invalid_arg "Bspline3d_tiled.create: n_orb < 1";
    let tile = min tile n_orb in
    let n_tiles = (n_orb + tile - 1) / tile in
    let tiles =
      Array.init n_tiles (fun t ->
          let this = min tile (n_orb - (t * tile)) in
          B.create ~nx ~ny ~nz ~n_orb:this)
    in
    { tiles; tile; n_orb }

  let n_orb t = t.n_orb
  let n_tiles t = Array.length t.tiles
  let tile_size t = t.tile
  let dims t = B.dims t.tiles.(0)

  let bytes t = Array.fold_left (fun acc b -> acc + B.bytes b) 0 t.tiles

  let locate t orb =
    if orb < 0 || orb >= t.n_orb then
      invalid_arg "Bspline3d_tiled: orbital out of range";
    (orb / t.tile, orb mod t.tile)

  let set_base t ~orb ~i ~j ~k v =
    let ti, o = locate t orb in
    B.set_base t.tiles.(ti) ~orb:o ~i ~j ~k v

  let get_base t ~orb ~i ~j ~k =
    let ti, o = locate t orb in
    B.get_base t.tiles.(ti) ~orb:o ~i ~j ~k

  (* Construction runs tile by tile through the flat module with the
     orbital index shifted to the tile's offset (the prefilter is
     separable per orbital), so coefficients are identical for every
     tile size and a one-tile table is exactly a {!Bspline3d.fill}. *)
  let fill t f =
    Array.iteri
      (fun ti b ->
        let off = ti * t.tile in
        B.fill b (if off = 0 then f else fun ~orb -> f ~orb:(orb + off)))
      t.tiles

  let fit_periodic t ~samples =
    Array.iteri
      (fun ti b ->
        let off = ti * t.tile in
        B.fit_periodic b
          ~samples:
            (if off = 0 then samples
             else fun ~orb -> samples ~orb:(orb + off)))
      t.tiles

  (* Values of all orbitals; the outer tile loop is the unit that a
     task-parallel evaluation distributes over threads. *)
  let eval_v t ~u0 ~u1 ~u2 (out : float array) =
    for ti = 0 to Array.length t.tiles - 1 do
      B.eval_v_at t.tiles.(ti) ~u0 ~u1 ~u2 out ~orb_off:(ti * t.tile)
    done

  let eval_vgh t ~u0 ~u1 ~u2 (buf : B.vgh_buf) =
    for ti = 0 to Array.length t.tiles - 1 do
      B.eval_vgh_at t.tiles.(ti) ~u0 ~u1 ~u2 buf ~orb_off:(ti * t.tile)
    done

  let make_vgh_buf t =
    let z () = Array.make t.n_orb 0. in
    { B.v = z (); gx = z (); gy = z (); gz = z (); hxx = z (); hxy = z ();
      hxz = z (); hyy = z (); hyz = z (); hzz = z () }

  (* ---------- crowd-batched kernels ---------- *)

  let make_vgh_batch t ~cap =
    let b = B.make_vgh_batch t.tiles.(0) ~cap in
    { b with B.outs = Array.init cap (fun _ -> make_vgh_buf t) }

  let make_v_batch t ~cap =
    let b = B.make_v_batch t.tiles.(0) ~cap in
    { b with B.vouts = Array.init cap (fun _ -> Array.make t.n_orb 0.) }

  (* Stage once (every tile shares the grid), then accumulate tile by
     tile; the ten vgh weight products are staged once per slot.  Zero
     allocation throughout. *)
  let eval_vgh_batch t (b : vgh_batch) ~n ~(u0 : float array)
      ~(u1 : float array) ~(u2 : float array) =
    B.stage_vgh_batch t.tiles.(0) b ~n ~u0 ~u1 ~u2;
    let nt = Array.length t.tiles in
    for s = 0 to n - 1 do
      B.stage_vgh_products b ~s;
      let buf = b.B.outs.(s) in
      for ti = 0 to nt - 1 do
        B.accum_vgh_slot t.tiles.(ti) b ~s ~buf ~orb_off:(ti * t.tile)
      done
    done

  let eval_v_batch t (b : v_batch) ~n ~(u0 : float array)
      ~(u1 : float array) ~(u2 : float array) =
    B.stage_v_batch t.tiles.(0) b ~n ~u0 ~u1 ~u2;
    let nt = Array.length t.tiles in
    for s = 0 to n - 1 do
      let out = b.B.vouts.(s) in
      for ti = 0 to nt - 1 do
        B.accum_v_slot t.tiles.(ti) b ~s ~out ~orb_off:(ti * t.tile)
      done
    done
end
