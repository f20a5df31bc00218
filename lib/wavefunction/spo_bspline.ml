open Oqmc_containers
open Oqmc_particle

(* B-spline-backed SPO engine.

   Wraps a periodic tricubic table: Cartesian positions are mapped to
   fractional coordinates, and the table's fractional-coordinate
   derivatives are pushed through the cell metric —
   ∇ᵣφ = Σ_b g_b (∂φ/∂s_b) and ∇²φ = Σ_{bc} (g_b·g_c) H_s(b,c) — so the
   Slater determinant sees Cartesian gradients and laplacians.  The table
   is read-only and shared by every walker and thread, as in QMCPACK.

   Scratch, by contrast, is never shared: the scalar path keeps one
   [vgh_buf] per domain (domain-local storage), and each batched context
   owns a crowd-sized arena, so parallel engines over the same [Spo.t]
   cannot trample each other's intermediates.

   The backing table is always the tiled (array-of-SoA) table; the flat
   einspline layout is its one-tile case. *)

module Make (R : Precision.REAL) = struct
  module T3 = Oqmc_spline.Bspline3d_tiled.Make (R)
  module B3 = T3.B

  let create ~(table : T3.t) ~(lattice : Lattice.t) : Spo.t =
    let n = T3.n_orb table in
    (* One scalar scratch buffer per domain: the Spo.t closure is shared
       across all domain engines, so a single captured buffer would race. *)
    let scratch = Domain.DLS.new_key (fun () -> T3.make_vgh_buf table) in
    (* Rows g_b of the inverse cell: ∂s_b/∂r_a = g_b[a]. *)
    let g = Lattice.frac_rows lattice in
    let g0 = g.(0) and g1 = g.(1) and g2 = g.(2) in
    (* Metric coefficients m_bc = g_b · g_c for the laplacian. *)
    let m00 = Vec3.dot g0 g0 and m11 = Vec3.dot g1 g1 in
    let m22 = Vec3.dot g2 g2 in
    let m01 = Vec3.dot g0 g1 and m02 = Vec3.dot g0 g2 in
    let m12 = Vec3.dot g1 g2 in
    (* Push one table result buffer through the metric into [out]. *)
    let to_cartesian (buf : B3.vgh_buf) (out : Spo.vgl) =
      for m = 0 to n - 1 do
        let dv0 = buf.B3.gx.(m) and dv1 = buf.B3.gy.(m) in
        let dv2 = buf.B3.gz.(m) in
        out.Spo.v.(m) <- buf.B3.v.(m);
        (* ∇ᵣφ[a] = Σ_b (∂φ/∂s_b) g_b[a]. *)
        out.Spo.gx.(m) <-
          (dv0 *. g0.Vec3.x) +. (dv1 *. g1.Vec3.x) +. (dv2 *. g2.Vec3.x);
        out.Spo.gy.(m) <-
          (dv0 *. g0.Vec3.y) +. (dv1 *. g1.Vec3.y) +. (dv2 *. g2.Vec3.y);
        out.Spo.gz.(m) <-
          (dv0 *. g0.Vec3.z) +. (dv1 *. g1.Vec3.z) +. (dv2 *. g2.Vec3.z);
        out.Spo.lap.(m) <-
          (m00 *. buf.B3.hxx.(m))
          +. (m11 *. buf.B3.hyy.(m))
          +. (m22 *. buf.B3.hzz.(m))
          +. (2. *. m01 *. buf.B3.hxy.(m))
          +. (2. *. m02 *. buf.B3.hxz.(m))
          +. (2. *. m12 *. buf.B3.hyz.(m))
      done
    in
    let eval_v (r : Vec3.t) out =
      let s = Lattice.to_frac lattice r in
      T3.eval_v table ~u0:s.Vec3.x ~u1:s.Vec3.y ~u2:s.Vec3.z out
    in
    let eval_vgl (r : Vec3.t) (out : Spo.vgl) =
      let buf = Domain.DLS.get scratch in
      let s = Lattice.to_frac lattice r in
      T3.eval_vgh table ~u0:s.Vec3.x ~u1:s.Vec3.y ~u2:s.Vec3.z buf;
      to_cartesian buf out
    in
    (* Fractional coordinates of [pos.(0..nw-1)] into [u0]/[u1]/[u2]:
       [Lattice.to_frac] inlined field-wise, because the batched path
       must stay allocation-free, and both to_frac's result Vec3 and a
       cross-module [Vec3.dot]'s boxed float return would allocate per
       slot without flambda. *)
    let stage_frac (pos : Vec3.t array) nw (u0 : float array)
        (u1 : float array) (u2 : float array) =
      for s = 0 to nw - 1 do
        let r = pos.(s) in
        let x = r.Vec3.x and y = r.Vec3.y and z = r.Vec3.z in
        u0.(s) <- (g0.Vec3.x *. x) +. (g0.Vec3.y *. y) +. (g0.Vec3.z *. z);
        u1.(s) <- (g1.Vec3.x *. x) +. (g1.Vec3.y *. y) +. (g1.Vec3.z *. z);
        u2.(s) <- (g2.Vec3.x *. x) +. (g2.Vec3.y *. y) +. (g2.Vec3.z *. z)
      done
    in
    (* Native crowd batches: fractional coordinates for the whole crowd
       are staged into the context's arrays, the table's batched kernel
       computes every walker's 1-D weights once and streams coefficient
       blocks, then each slot is pushed through the metric. *)
    let make_vgl_batch cap =
      if cap < 1 then invalid_arg "Spo_bspline.make_vgl_batch: cap < 1";
      let arena = T3.make_vgh_batch table ~cap in
      let slots = Array.init cap (fun _ -> Spo.make_vgl n) in
      let u0 = Array.make cap 0. in
      let u1 = Array.make cap 0. in
      let u2 = Array.make cap 0. in
      let run (pos : Vec3.t array) nw =
        stage_frac pos nw u0 u1 u2;
        T3.eval_vgh_batch table arena ~n:nw ~u0 ~u1 ~u2;
        for s = 0 to nw - 1 do
          to_cartesian arena.B3.outs.(s) slots.(s)
        done
      in
      { Spo.cap; slots; run }
    in
    let make_v_batch cap =
      if cap < 1 then invalid_arg "Spo_bspline.make_v_batch: cap < 1";
      let arena = T3.make_v_batch table ~cap in
      let u0 = Array.make cap 0. in
      let u1 = Array.make cap 0. in
      let u2 = Array.make cap 0. in
      let vrun (pos : Vec3.t array) nw =
        stage_frac pos nw u0 u1 u2;
        T3.eval_v_batch table arena ~n:nw ~u0 ~u1 ~u2
      in
      (* Values need no metric conversion: expose the arena's result rows
         directly as the batch slots. *)
      { Spo.vcap = cap; vslots = arena.B3.vouts; vrun }
    in
    let label =
      if T3.n_tiles table = 1 then Printf.sprintf "bspline-%s" R.name
      else Printf.sprintf "bspline-tiled%d-%s" (T3.tile_size table) R.name
    in
    Spo.make ~make_vgl_batch ~make_v_batch ~n_orb:n ~label ~eval_v ~eval_vgl
      ~bytes:(T3.bytes table) ()
end
