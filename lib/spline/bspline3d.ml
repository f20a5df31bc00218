open Oqmc_containers

(* Periodic tricubic B-spline tables for single-particle orbitals.

   This is the Bspline-SPO engine (Bspline-v / Bspline-vgh kernels of the
   paper).  All orbitals share one coefficient grid with the orbital index
   innermost, so the hot loops stream [n_orb] consecutive coefficients per
   (i,j,k) stencil point — einspline's multi-spline layout.  Coefficients
   are stored at the build's storage precision (single precision for every
   variant since QMCPACK 3.0.0, per the paper); accumulation happens in
   double-precision scratch buffers.

   Positions are fractional supercell coordinates s ∈ [0,1)³; derivatives
   are returned with respect to s.  The SPO wrapper applies the lattice
   metric to produce Cartesian gradients and laplacians.

   The wrap-around of the periodic grid is pre-baked: each dimension stores
   n + 3 coefficient planes where the top three duplicate the first three,
   so the stencil never needs a modulo. *)

module Make (R : Precision.REAL) = struct
  module A = Aligned.Make (R)

  type t = {
    coeffs : A.t;
    nx : int;
    ny : int;
    nz : int;
    n_orb : int;
    orb_stride : int;
    cy : int; (* ny + 3 *)
    cz : int; (* nz + 3 *)
  }

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

  (* Crowd-sized scratch arena for the batched kernels: stencil origins
     and 1-D basis weights for up to [cap] walkers (4 weights per axis and
     derivative order, stored flat at offset 4·slot), plus one result
     buffer per slot.  Allocated once per domain and reused across every
     generation, so the batched hot loops never touch the allocator. *)
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

  let create ~nx ~ny ~nz ~n_orb =
    if nx < 4 || ny < 4 || nz < 4 then
      invalid_arg "Bspline3d.create: grid must be at least 4 per dimension";
    if n_orb < 1 then invalid_arg "Bspline3d.create: n_orb < 1";
    let orb_stride = A.padded_len n_orb in
    let coeffs = A.create ((nx + 3) * (ny + 3) * (nz + 3) * orb_stride) in
    { coeffs; nx; ny; nz; n_orb; orb_stride; cy = ny + 3; cz = nz + 3 }

  let n_orb t = t.n_orb
  let dims t = (t.nx, t.ny, t.nz)
  let bytes t = A.bytes t.coeffs

  let make_vgh_buf t =
    let z () = Array.make t.n_orb 0. in
    { v = z (); gx = z (); gy = z (); gz = z (); hxx = z (); hxy = z ();
      hxz = z (); hyy = z (); hyz = z (); hzz = z () }

  let index t i j k m = ((((i * t.cy) + j) * t.cz) + k) * t.orb_stride + m

  (* Write a base coefficient (i < nx etc.) and its wrap duplicates. *)
  let set_base t ~orb ~i ~j ~k value =
    if i < 0 || i >= t.nx || j < 0 || j >= t.ny || k < 0 || k >= t.nz then
      invalid_arg "Bspline3d.set_base: index out of base grid";
    let is = if i < 3 then [ i; i + t.nx ] else [ i ] in
    let js = if j < 3 then [ j; j + t.ny ] else [ j ] in
    let ks = if k < 3 then [ k; k + t.nz ] else [ k ] in
    List.iter
      (fun ii ->
        List.iter
          (fun jj ->
            List.iter
              (fun kk -> A.set t.coeffs (index t ii jj kk orb) value)
              ks)
          js)
      is

  let get_base t ~orb ~i ~j ~k = A.get t.coeffs (index t i j k orb)

  (* Construction goes through the layout-shared driver (one copy of the
     sweep and of the periodic prefilter for both the flat and the tiled
     layouts — see Bspline_fit). *)
  let fill t f =
    Bspline_fit.fill ~nx:t.nx ~ny:t.ny ~nz:t.nz ~n_orb:t.n_orb ~f
      ~set:(fun ~orb ~i ~j ~k v -> set_base t ~orb ~i ~j ~k v)

  let fit_periodic t ~samples =
    Bspline_fit.fit_periodic ~nx:t.nx ~ny:t.ny ~nz:t.nz ~n_orb:t.n_orb
      ~samples ~set:(fun ~orb ~i ~j ~k v -> set_base t ~orb ~i ~j ~k v)

  let wrap s = s -. Float.of_int (int_of_float (Float.floor s))

  let locate n s =
    let x = wrap s *. float_of_int n in
    let i = int_of_float x in
    let i = if i >= n then n - 1 else if i < 0 then 0 else i in
    (i, x -. float_of_int i)

  let weights_of basis tx =
    let w = basis tx in
    [| w.Bspline_basis.w0; w.Bspline_basis.w1; w.Bspline_basis.w2;
       w.Bspline_basis.w3 |]

  (* Zero orbitals [orb_off, orb_off + n_orb) of a vgh buffer. *)
  let zero_vgh t (buf : vgh_buf) ~orb_off =
    let n = t.n_orb in
    Array.fill buf.v orb_off n 0.;
    Array.fill buf.gx orb_off n 0.;
    Array.fill buf.gy orb_off n 0.;
    Array.fill buf.gz orb_off n 0.;
    Array.fill buf.hxx orb_off n 0.;
    Array.fill buf.hxy orb_off n 0.;
    Array.fill buf.hxz orb_off n 0.;
    Array.fill buf.hyy orb_off n 0.;
    Array.fill buf.hyz orb_off n 0.;
    Array.fill buf.hzz orb_off n 0.

  (* Convert t-space derivatives of orbitals [orb_off, orb_off + n_orb)
     to fractional-coordinate derivatives. *)
  let scale_vgh t (buf : vgh_buf) ~orb_off =
    let fx = float_of_int t.nx and fy = float_of_int t.ny in
    let fz = float_of_int t.nz in
    for m = orb_off to orb_off + t.n_orb - 1 do
      buf.gx.(m) <- buf.gx.(m) *. fx;
      buf.gy.(m) <- buf.gy.(m) *. fy;
      buf.gz.(m) <- buf.gz.(m) *. fz;
      buf.hxx.(m) <- buf.hxx.(m) *. fx *. fx;
      buf.hxy.(m) <- buf.hxy.(m) *. fx *. fy;
      buf.hxz.(m) <- buf.hxz.(m) *. fx *. fz;
      buf.hyy.(m) <- buf.hyy.(m) *. fy *. fy;
      buf.hyz.(m) <- buf.hyz.(m) *. fy *. fz;
      buf.hzz.(m) <- buf.hzz.(m) *. fz *. fz
    done

  (* Bspline-v: values of all orbitals at s = (u0,u1,u2), into
     [out.(orb_off ..)] — a tiled table evaluates each tile straight into
     its orbital segment of the caller's buffer. *)
  let eval_v_at t ~u0 ~u1 ~u2 (out : float array) ~orb_off =
    let ix, tx = locate t.nx u0 in
    let iy, ty = locate t.ny u1 in
    let iz, tz = locate t.nz u2 in
    let wx = weights_of Bspline_basis.value tx in
    let wy = weights_of Bspline_basis.value ty in
    let wz = weights_of Bspline_basis.value tz in
    let n = t.n_orb in
    Array.fill out orb_off n 0.;
    let coeffs = t.coeffs in
    for a = 0 to 3 do
      for b = 0 to 3 do
        let wab = wx.(a) *. wy.(b) in
        let row = (((ix + a) * t.cy) + iy + b) * t.cz + iz in
        for c = 0 to 3 do
          let p = wab *. wz.(c) in
          let base = (row + c) * t.orb_stride in
          for m = 0 to n - 1 do
            let o = orb_off + m in
            out.(o) <- out.(o) +. (p *. A.unsafe_get coeffs (base + m))
          done
        done
      done
    done

  let eval_v t ~u0 ~u1 ~u2 out = eval_v_at t ~u0 ~u1 ~u2 out ~orb_off:0

  (* Bspline-vgh: values, fractional-coordinate gradients and hessians,
     into orbitals [orb_off ..] of [buf]. *)
  let eval_vgh_at t ~u0 ~u1 ~u2 (buf : vgh_buf) ~orb_off =
    let ix, tx = locate t.nx u0 in
    let iy, ty = locate t.ny u1 in
    let iz, tz = locate t.nz u2 in
    let wx = weights_of Bspline_basis.value tx in
    let wy = weights_of Bspline_basis.value ty in
    let wz = weights_of Bspline_basis.value tz in
    let dx = weights_of Bspline_basis.first tx in
    let dy = weights_of Bspline_basis.first ty in
    let dz = weights_of Bspline_basis.first tz in
    let sx = weights_of Bspline_basis.second tx in
    let sy = weights_of Bspline_basis.second ty in
    let sz = weights_of Bspline_basis.second tz in
    let n = t.n_orb in
    zero_vgh t buf ~orb_off;
    let coeffs = t.coeffs in
    for a = 0 to 3 do
      for b = 0 to 3 do
        let wxa = wx.(a) and dxa = dx.(a) and sxa = sx.(a) in
        let wyb = wy.(b) and dyb = dy.(b) and syb = sy.(b) in
        let row = (((ix + a) * t.cy) + iy + b) * t.cz + iz in
        for c = 0 to 3 do
          let wzc = wz.(c) and dzc = dz.(c) and szc = sz.(c) in
          let p_v = wxa *. wyb *. wzc in
          let p_gx = dxa *. wyb *. wzc in
          let p_gy = wxa *. dyb *. wzc in
          let p_gz = wxa *. wyb *. dzc in
          let p_hxx = sxa *. wyb *. wzc in
          let p_hxy = dxa *. dyb *. wzc in
          let p_hxz = dxa *. wyb *. dzc in
          let p_hyy = wxa *. syb *. wzc in
          let p_hyz = wxa *. dyb *. dzc in
          let p_hzz = wxa *. wyb *. szc in
          let base = (row + c) * t.orb_stride in
          for m = 0 to n - 1 do
            let cf = A.unsafe_get coeffs (base + m) in
            let o = orb_off + m in
            buf.v.(o) <- buf.v.(o) +. (p_v *. cf);
            buf.gx.(o) <- buf.gx.(o) +. (p_gx *. cf);
            buf.gy.(o) <- buf.gy.(o) +. (p_gy *. cf);
            buf.gz.(o) <- buf.gz.(o) +. (p_gz *. cf);
            buf.hxx.(o) <- buf.hxx.(o) +. (p_hxx *. cf);
            buf.hxy.(o) <- buf.hxy.(o) +. (p_hxy *. cf);
            buf.hxz.(o) <- buf.hxz.(o) +. (p_hxz *. cf);
            buf.hyy.(o) <- buf.hyy.(o) +. (p_hyy *. cf);
            buf.hyz.(o) <- buf.hyz.(o) +. (p_hyz *. cf);
            buf.hzz.(o) <- buf.hzz.(o) +. (p_hzz *. cf)
          done
        done
      done
    done;
    scale_vgh t buf ~orb_off

  let eval_vgh t ~u0 ~u1 ~u2 buf = eval_vgh_at t ~u0 ~u1 ~u2 buf ~orb_off:0

  (* ---------- crowd-batched kernels ----------

     The batched entry points take [n] fractional positions (one per
     walker of the crowd) and evaluate them through preallocated scratch:
     phase 1 locates every walker's stencil and computes its 1-D basis
     weights once into the flat arena; phase 2 streams the coefficient
     cache blocks walker by walker with zero allocation.  Per walker the
     arithmetic (expressions and accumulation order) is exactly that of
     the scalar kernels, so the double path is bit-identical to [n]
     scalar calls — the scalar kernel stays the reference oracle. *)

  let make_vgh_batch t ~cap =
    if cap < 1 then invalid_arg "Bspline3d.make_vgh_batch: cap < 1";
    let fa () = Array.make (4 * cap) 0. in
    let ia () = Array.make cap 0 in
    {
      cap;
      bix = ia ();
      biy = ia ();
      biz = ia ();
      bwx = fa ();
      bwy = fa ();
      bwz = fa ();
      bdx = fa ();
      bdy = fa ();
      bdz = fa ();
      bsx = fa ();
      bsy = fa ();
      bsz = fa ();
      bprod = Array.make (640 * cap) 0.;
      outs = Array.init cap (fun _ -> make_vgh_buf t);
    }

  let make_v_batch t ~cap =
    if cap < 1 then invalid_arg "Bspline3d.make_v_batch: cap < 1";
    let fa () = Array.make (4 * cap) 0. in
    let ia () = Array.make cap 0 in
    {
      vcap = cap;
      vix = ia ();
      viy = ia ();
      viz = ia ();
      vwx = fa ();
      vwy = fa ();
      vwz = fa ();
      vouts = Array.init cap (fun _ -> Array.make t.n_orb 0.);
    }

  (* Allocation-free weight fills; same formulas as Bspline_basis.  The
     interpolation parameter is read from [w.(off)] (stashed there by the
     caller) rather than passed as an argument: a float argument to a
     non-inlined call gets boxed, and these run nine times per walker per
     move. *)
  let put_value (w : float array) off =
    let t = Array.unsafe_get w off in
    let t2 = t *. t in
    let t3 = t2 *. t in
    let mt = 1. -. t in
    w.(off) <- mt *. mt *. mt /. 6.;
    w.(off + 1) <- ((3. *. t3) -. (6. *. t2) +. 4.) /. 6.;
    w.(off + 2) <- ((-3. *. t3) +. (3. *. t2) +. (3. *. t) +. 1.) /. 6.;
    w.(off + 3) <- t3 /. 6.

  let put_first (w : float array) off =
    let t = Array.unsafe_get w off in
    let t2 = t *. t in
    let mt = 1. -. t in
    w.(off) <- -.(mt *. mt) /. 2.;
    w.(off + 1) <- ((9. *. t2) -. (12. *. t)) /. 6.;
    w.(off + 2) <- ((-9. *. t2) +. (6. *. t) +. 3.) /. 6.;
    w.(off + 3) <- t2 /. 2.

  let put_second (w : float array) off =
    let t = Array.unsafe_get w off in
    w.(off) <- 1. -. t;
    w.(off + 1) <- (3. *. t) -. 2.;
    w.(off + 2) <- 1. -. (3. *. t);
    w.(off + 3) <- t

  (* Phase 1 of the batched Bspline-v: per-walker stencil origin + value
     weights into the arena.  Only the grid dimensions are read, so a
     tiled table stages once and runs phase 2 per tile.  [locate] written
     out so no (int, float) tuple is allocated. *)
  let stage_v_batch t (b : v_batch) ~n ~(u0 : float array)
      ~(u1 : float array) ~(u2 : float array) =
    if n < 0 || n > b.vcap then invalid_arg "Bspline3d.eval_v_batch: bad n";
    for s = 0 to n - 1 do
      let x = wrap u0.(s) *. float_of_int t.nx in
      let ix = int_of_float x in
      let ix = if ix >= t.nx then t.nx - 1 else if ix < 0 then 0 else ix in
      let tx = x -. float_of_int ix in
      let y = wrap u1.(s) *. float_of_int t.ny in
      let iy = int_of_float y in
      let iy = if iy >= t.ny then t.ny - 1 else if iy < 0 then 0 else iy in
      let ty = y -. float_of_int iy in
      let z = wrap u2.(s) *. float_of_int t.nz in
      let iz = int_of_float z in
      let iz = if iz >= t.nz then t.nz - 1 else if iz < 0 then 0 else iz in
      let tz = z -. float_of_int iz in
      b.vix.(s) <- ix;
      b.viy.(s) <- iy;
      b.viz.(s) <- iz;
      let off = 4 * s in
      b.vwx.(off) <- tx;
      b.vwy.(off) <- ty;
      b.vwz.(off) <- tz;
      put_value b.vwx off;
      put_value b.vwy off;
      put_value b.vwz off
    done

  (* Phase 1 of the batched Bspline-vgh: per-walker stencil origin + the
     nine weight vectors.  [locate] written out so no (int, float) tuples
     are allocated. *)
  let stage_vgh_batch t (b : vgh_batch) ~n ~(u0 : float array)
      ~(u1 : float array) ~(u2 : float array) =
    if n < 0 || n > b.cap then invalid_arg "Bspline3d.eval_vgh_batch: bad n";
    for s = 0 to n - 1 do
      let x = wrap u0.(s) *. float_of_int t.nx in
      let ix = int_of_float x in
      let ix = if ix >= t.nx then t.nx - 1 else if ix < 0 then 0 else ix in
      let tx = x -. float_of_int ix in
      let y = wrap u1.(s) *. float_of_int t.ny in
      let iy = int_of_float y in
      let iy = if iy >= t.ny then t.ny - 1 else if iy < 0 then 0 else iy in
      let ty = y -. float_of_int iy in
      let z = wrap u2.(s) *. float_of_int t.nz in
      let iz = int_of_float z in
      let iz = if iz >= t.nz then t.nz - 1 else if iz < 0 then 0 else iz in
      let tz = z -. float_of_int iz in
      b.bix.(s) <- ix;
      b.biy.(s) <- iy;
      b.biz.(s) <- iz;
      let off = 4 * s in
      b.bwx.(off) <- tx;
      b.bwy.(off) <- ty;
      b.bwz.(off) <- tz;
      b.bdx.(off) <- tx;
      b.bdy.(off) <- ty;
      b.bdz.(off) <- tz;
      b.bsx.(off) <- tx;
      b.bsy.(off) <- ty;
      b.bsz.(off) <- tz;
      put_value b.bwx off;
      put_value b.bwy off;
      put_value b.bwz off;
      put_first b.bdx off;
      put_first b.bdy off;
      put_first b.bdz off;
      put_second b.bsx off;
      put_second b.bsy off;
      put_second b.bsz off
    done

  (* ---------- phase 2: fused accumulation ----------

     One monomorphic kernel per storage kind reads the coefficient
     bigarray directly inside the accumulation loop.  Reading a bigarray
     whose element kind is only known through the functor argument goes
     through an indirect call that boxes every float it returns; matching
     the kind GADT once recovers the static kind, so the loads compile to
     direct unboxed reads and the batched path stays allocation-free.
     The coefficients are the same doubles in the same (a,b,c,m) order
     and the weight products are the same expressions as the scalar
     kernels', so results are bit-identical to them.

     Phase 2 writes orbitals [orb_off, orb_off + n_orb t) of a result
     buffer: a tiled table stages phase 1 once per batch and the ten vgh
     weight products once per slot ({!stage_vgh_products}), then runs
     this accumulation once per tile at the tile's orbital offset. *)

  (* Products for slot [s] into [b.bprod] at [(s·64 + point)·10 + field],
     field order v,gx,gy,gz,hxx,hxy,hxz,hyy,hyz,hzz — the exact
     expressions of [eval_vgh]. *)
  let stage_vgh_products (b : vgh_batch) ~s =
    let off = 4 * s in
    let prod = b.bprod in
    let q = ref (640 * s) in
    for a = 0 to 3 do
      let wxa = b.bwx.(off + a)
      and dxa = b.bdx.(off + a)
      and sxa = b.bsx.(off + a) in
      for bb = 0 to 3 do
        let wyb = b.bwy.(off + bb)
        and dyb = b.bdy.(off + bb)
        and syb = b.bsy.(off + bb) in
        for c = 0 to 3 do
          let wzc = b.bwz.(off + c)
          and dzc = b.bdz.(off + c)
          and szc = b.bsz.(off + c) in
          let p = !q in
          Array.unsafe_set prod p (wxa *. wyb *. wzc);
          Array.unsafe_set prod (p + 1) (dxa *. wyb *. wzc);
          Array.unsafe_set prod (p + 2) (wxa *. dyb *. wzc);
          Array.unsafe_set prod (p + 3) (wxa *. wyb *. dzc);
          Array.unsafe_set prod (p + 4) (sxa *. wyb *. wzc);
          Array.unsafe_set prod (p + 5) (dxa *. dyb *. wzc);
          Array.unsafe_set prod (p + 6) (dxa *. wyb *. dzc);
          Array.unsafe_set prod (p + 7) (wxa *. syb *. wzc);
          Array.unsafe_set prod (p + 8) (wxa *. dyb *. dzc);
          Array.unsafe_set prod (p + 9) (wxa *. wyb *. szc);
          q := p + 10
        done
      done
    done

  let accum_vgh_direct_f64
      (coeffs : (float, Bigarray.float64_elt, Bigarray.c_layout)
                  Bigarray.Array1.t) (b : vgh_batch) ~s ~(buf : vgh_buf)
      ~orb_off ~norb ~cy ~cz ~orb_stride =
    let ix = b.bix.(s) and iy = b.biy.(s) and iz = b.biz.(s) in
    let prod = b.bprod in
    let q = ref (640 * s) in
    for a = 0 to 3 do
      for bb = 0 to 3 do
        let row = (((ix + a) * cy) + iy + bb) * cz + iz in
        for c = 0 to 3 do
          let p = !q in
          let p_v = Array.unsafe_get prod p in
          let p_gx = Array.unsafe_get prod (p + 1) in
          let p_gy = Array.unsafe_get prod (p + 2) in
          let p_gz = Array.unsafe_get prod (p + 3) in
          let p_hxx = Array.unsafe_get prod (p + 4) in
          let p_hxy = Array.unsafe_get prod (p + 5) in
          let p_hxz = Array.unsafe_get prod (p + 6) in
          let p_hyy = Array.unsafe_get prod (p + 7) in
          let p_hyz = Array.unsafe_get prod (p + 8) in
          let p_hzz = Array.unsafe_get prod (p + 9) in
          let base = (row + c) * orb_stride in
          for m = 0 to norb - 1 do
            let cf = Bigarray.Array1.unsafe_get coeffs (base + m) in
            let o = orb_off + m in
            buf.v.(o) <- buf.v.(o) +. (p_v *. cf);
            buf.gx.(o) <- buf.gx.(o) +. (p_gx *. cf);
            buf.gy.(o) <- buf.gy.(o) +. (p_gy *. cf);
            buf.gz.(o) <- buf.gz.(o) +. (p_gz *. cf);
            buf.hxx.(o) <- buf.hxx.(o) +. (p_hxx *. cf);
            buf.hxy.(o) <- buf.hxy.(o) +. (p_hxy *. cf);
            buf.hxz.(o) <- buf.hxz.(o) +. (p_hxz *. cf);
            buf.hyy.(o) <- buf.hyy.(o) +. (p_hyy *. cf);
            buf.hyz.(o) <- buf.hyz.(o) +. (p_hyz *. cf);
            buf.hzz.(o) <- buf.hzz.(o) +. (p_hzz *. cf)
          done;
          q := p + 10
        done
      done
    done

  let accum_vgh_direct_f32
      (coeffs : (float, Bigarray.float32_elt, Bigarray.c_layout)
                  Bigarray.Array1.t) (b : vgh_batch) ~s ~(buf : vgh_buf)
      ~orb_off ~norb ~cy ~cz ~orb_stride =
    let ix = b.bix.(s) and iy = b.biy.(s) and iz = b.biz.(s) in
    let prod = b.bprod in
    let q = ref (640 * s) in
    for a = 0 to 3 do
      for bb = 0 to 3 do
        let row = (((ix + a) * cy) + iy + bb) * cz + iz in
        for c = 0 to 3 do
          let p = !q in
          let p_v = Array.unsafe_get prod p in
          let p_gx = Array.unsafe_get prod (p + 1) in
          let p_gy = Array.unsafe_get prod (p + 2) in
          let p_gz = Array.unsafe_get prod (p + 3) in
          let p_hxx = Array.unsafe_get prod (p + 4) in
          let p_hxy = Array.unsafe_get prod (p + 5) in
          let p_hxz = Array.unsafe_get prod (p + 6) in
          let p_hyy = Array.unsafe_get prod (p + 7) in
          let p_hyz = Array.unsafe_get prod (p + 8) in
          let p_hzz = Array.unsafe_get prod (p + 9) in
          let base = (row + c) * orb_stride in
          for m = 0 to norb - 1 do
            let cf = Bigarray.Array1.unsafe_get coeffs (base + m) in
            let o = orb_off + m in
            buf.v.(o) <- buf.v.(o) +. (p_v *. cf);
            buf.gx.(o) <- buf.gx.(o) +. (p_gx *. cf);
            buf.gy.(o) <- buf.gy.(o) +. (p_gy *. cf);
            buf.gz.(o) <- buf.gz.(o) +. (p_gz *. cf);
            buf.hxx.(o) <- buf.hxx.(o) +. (p_hxx *. cf);
            buf.hxy.(o) <- buf.hxy.(o) +. (p_hxy *. cf);
            buf.hxz.(o) <- buf.hxz.(o) +. (p_hxz *. cf);
            buf.hyy.(o) <- buf.hyy.(o) +. (p_hyy *. cf);
            buf.hyz.(o) <- buf.hyz.(o) +. (p_hyz *. cf);
            buf.hzz.(o) <- buf.hzz.(o) +. (p_hzz *. cf)
          done;
          q := p + 10
        done
      done
    done

  let accum_vgh_direct :
      A.t -> vgh_batch -> s:int -> buf:vgh_buf -> orb_off:int -> norb:int ->
      cy:int -> cz:int -> orb_stride:int -> unit =
    match R.kind with
    | Bigarray.Float64 -> accum_vgh_direct_f64
    | Bigarray.Float32 -> accum_vgh_direct_f32

  (* Phase 2 for walker slot [s]; requires its staged products. *)
  let accum_vgh_slot t (b : vgh_batch) ~s ~(buf : vgh_buf) ~orb_off =
    zero_vgh t buf ~orb_off;
    accum_vgh_direct t.coeffs b ~s ~buf ~orb_off ~norb:t.n_orb ~cy:t.cy
      ~cz:t.cz ~orb_stride:t.orb_stride;
    scale_vgh t buf ~orb_off

  let accum_v_direct_f64
      (coeffs : (float, Bigarray.float64_elt, Bigarray.c_layout)
                  Bigarray.Array1.t) (b : v_batch) ~s ~(out : float array)
      ~orb_off ~norb ~cy ~cz ~orb_stride =
    let ix = b.vix.(s) and iy = b.viy.(s) and iz = b.viz.(s) in
    let off = 4 * s in
    for a = 0 to 3 do
      for bb = 0 to 3 do
        let wab = b.vwx.(off + a) *. b.vwy.(off + bb) in
        let row = (((ix + a) * cy) + iy + bb) * cz + iz in
        for c = 0 to 3 do
          let p = wab *. b.vwz.(off + c) in
          let base = (row + c) * orb_stride in
          for m = 0 to norb - 1 do
            let o = orb_off + m in
            out.(o) <-
              out.(o) +. (p *. Bigarray.Array1.unsafe_get coeffs (base + m))
          done
        done
      done
    done

  let accum_v_direct_f32
      (coeffs : (float, Bigarray.float32_elt, Bigarray.c_layout)
                  Bigarray.Array1.t) (b : v_batch) ~s ~(out : float array)
      ~orb_off ~norb ~cy ~cz ~orb_stride =
    let ix = b.vix.(s) and iy = b.viy.(s) and iz = b.viz.(s) in
    let off = 4 * s in
    for a = 0 to 3 do
      for bb = 0 to 3 do
        let wab = b.vwx.(off + a) *. b.vwy.(off + bb) in
        let row = (((ix + a) * cy) + iy + bb) * cz + iz in
        for c = 0 to 3 do
          let p = wab *. b.vwz.(off + c) in
          let base = (row + c) * orb_stride in
          for m = 0 to norb - 1 do
            let o = orb_off + m in
            out.(o) <-
              out.(o) +. (p *. Bigarray.Array1.unsafe_get coeffs (base + m))
          done
        done
      done
    done

  let accum_v_direct :
      A.t -> v_batch -> s:int -> out:float array -> orb_off:int ->
      norb:int -> cy:int -> cz:int -> orb_stride:int -> unit =
    match R.kind with
    | Bigarray.Float64 -> accum_v_direct_f64
    | Bigarray.Float32 -> accum_v_direct_f32

  (* Phase 2 of Bspline-v for slot [s]; the value products are three
     mults per stencil point, cheap enough to recompute per tile. *)
  let accum_v_slot t (b : v_batch) ~s ~(out : float array) ~orb_off =
    Array.fill out orb_off t.n_orb 0.;
    accum_v_direct t.coeffs b ~s ~out ~orb_off ~norb:t.n_orb ~cy:t.cy
      ~cz:t.cz ~orb_stride:t.orb_stride

  let eval_vgh_batch t (b : vgh_batch) ~n ~(u0 : float array)
      ~(u1 : float array) ~(u2 : float array) =
    stage_vgh_batch t b ~n ~u0 ~u1 ~u2;
    for s = 0 to n - 1 do
      stage_vgh_products b ~s;
      accum_vgh_slot t b ~s ~buf:b.outs.(s) ~orb_off:0
    done

  let eval_v_batch t (b : v_batch) ~n ~(u0 : float array) ~(u1 : float array)
      ~(u2 : float array) =
    stage_v_batch t b ~n ~u0 ~u1 ~u2;
    for s = 0 to n - 1 do
      accum_v_slot t b ~s ~out:b.vouts.(s) ~orb_off:0
    done

  (* Analytic size of a table in bytes for workloads too big to allocate
     (the B-spline column of Table 1). *)
  let table_bytes ~nx ~ny ~nz ~n_orb ~elt_bytes =
    (nx + 3) * (ny + 3) * (nz + 3) * n_orb * elt_bytes
end
