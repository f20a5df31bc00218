open Oqmc_containers
open Oqmc_linalg

(* Slater determinant component for one spin group.

   The Slater matrix is M(i,j) = φⱼ(r_{first+i}); the engine stores the
   transposed inverse B = M⁻ᵀ so that the determinant ratio for a move of
   electron k is the contiguous row dot B[k]·v (Eq. 6 of the paper) and
   the quantum-force gradient comes from the same row against ∇φ.

   On acceptance B is refreshed either by the Sherman–Morrison BLAS2
   update (the paper's DetUpdate) or by the delayed Woodbury scheme of
   Sec. 8.4.  [evaluate_log] recomputes B from scratch in double
   precision, which is also the periodic mixed-precision refresh.

   The working state is an explicit record so that the scalar component
   closures and the crowd batch entry points ([grad_into],
   [ratio_grad_into], [accept_move]) share the same ratio/dot routines —
   batched crowd sweeps stay bit-identical to the scalar path by
   construction.

   Kernel timing keys: Bspline-v and Bspline-vgh for SPO evaluation
   inside [ratio], [grad] and [ratio_grad] (for every SPO engine and
   orbital-table layout); SPO-vgl times the per-electron measurement
   sweep and DetUpdate the inverse update.  The crowd entry points are UNtimed: the
   crowd driver wraps each batched stage in a single timer window per
   crowd instead of one per walker.

   Two precisions parameterize the state: [R] is the walker/positions
   precision (particle sets, Wfc interface), [I] the inverse-matrix
   storage precision — B = M⁻ᵀ, the Slater matrix and the delayed-update
   panels narrow through [I] while every dot product and update
   accumulates in double (the precision_inv knob of the mixed-precision
   scheme).  [evaluate_log]'s full recompute doubles as the periodic
   refresh that bounds f32 inverse drift. *)

module Make (R : Precision.REAL) (I : Precision.REAL) = struct
  module W = Wfc.Make (R)
  module Ps = W.Ps
  module A = Aligned.Make (I)
  module M = Matrix.Make (I)
  module L = Lu.Make (I)
  module B = Blas.Make (I)
  module Sm = Sherman_morrison.Make (I)
  module Du = Delayed_update.Make (I)

  type scheme = Sherman_morrison | Delayed of int

  type state = {
    spo : Spo.t;
    timers : Timers.t;
    first : int;
    n : int;
    binv : M.t;
    phim : M.t;
    vgl : Spo.vgl;
    vbuf : float array;
    psiv : A.t;
    ws : Sm.workspace;
    du : Du.t option;
    last_ratio : float ref;
    log_abs : float ref;
    (* Whole-determinant sweeps (recompute, measurement) evaluate all n
       electron positions through one batched kernel call: the scratch
       arena is shared across the rows instead of re-allocated per
       electron.  Lazy so single-move-only paths never pay for it. *)
    row_pos : Vec3.t array;
    v_rows : Spo.v_batch Lazy.t;
    vgl_rows : Spo.vgl_batch Lazy.t;
    dot_scratch : A.t;
    pad : float array; (* unboxed landing pad for staged row dots *)
  }

  let make ?(timers = Timers.null) ?(scheme = Sherman_morrison)
      ~(spo : Spo.t) ~first ~count (ps : Ps.t) : state =
    let n = count in
    if n < 1 then invalid_arg "Slater_det.create: empty determinant";
    if spo.Spo.n_orb < n then
      invalid_arg "Slater_det.create: fewer orbitals than electrons";
    if first < 0 || first + n > Ps.n ps then
      invalid_arg "Slater_det.create: electron range out of bounds";
    let binv = M.create n n in
    {
      spo;
      timers;
      first;
      n;
      binv;
      phim = M.create n n;
      vgl = Spo.make_vgl spo.Spo.n_orb;
      vbuf = Array.make spo.Spo.n_orb 0.;
      psiv = A.create n;
      ws = Sm.make_workspace n;
      du =
        (match scheme with
        | Delayed d -> Some (Du.create ~delay:d binv)
        | Sherman_morrison -> None);
      last_ratio = ref 1.;
      log_abs = ref 0.;
      row_pos = Array.make n Vec3.zero;
      v_rows = lazy (spo.Spo.make_v_batch n);
      vgl_rows = lazy (spo.Spo.make_vgl_batch n);
      dot_scratch = A.create n;
      pad = [| 0. |];
    }

  let in_group st k = k >= st.first && k < st.first + st.n
  let flush st = match st.du with Some d -> Du.flush d | None -> ()

  (* One bulk narrowing store instead of a boxed crossing per element;
     write_from rounds through the storage width exactly like the
     per-element stores it replaces. *)
  let load_psiv st = A.write_from st.vbuf st.psiv ~pos:0 ~n:st.n

  let det_ratio st kl =
    match st.du with
    | Some d -> Du.ratio d kl st.psiv
    | None -> Sm.ratio st.binv kl st.psiv

  (* Row dot of B[kl] against one gradient component, with the delayed
     corrections when a queue is pending. *)
  let corrected_dot st kl (comp : float array) =
    match st.du with
    | Some d when Du.pending d > 0 ->
        (* Route through the delayed ratio on a scratch copy: the
           correction formula is identical for any replacement vector
           ([Du.ratio] only reads it, so the scratch is reusable). *)
        let tmp = st.dot_scratch in
        A.write_from comp tmp ~pos:0 ~n:st.n;
        Du.ratio d kl tmp
    | _ ->
        A.dot_arr_into (M.data st.binv)
          ~pos:(kl * M.ld st.binv)
          comp ~n:st.n st.pad 0;
        st.pad.(0)

  (* Commit the staged move of electron [k] (the engine must have routed
     the matching ratio/ratio_grad through this state first).  Untimed:
     crowd drivers take one DetUpdate window per batched commit stage. *)
  let accept_move st k =
    if in_group st k then begin
      let kl = k - st.first in
      (match st.du with
      | Some d -> Du.accept d kl st.psiv
      | None ->
          Sm.update_row st.binv kl st.psiv ~ratio:!(st.last_ratio)
            ~ws:st.ws);
      st.log_abs := !(st.log_abs) +. log (abs_float !(st.last_ratio))
    end

  (* Crowd gradient stage: accumulate ∇ log D at the CURRENT position of
     electron [k] into slot [s], from a pre-computed SPO result.
     Out-of-group electrons contribute exactly +0. in the scalar path, so
     skipping them leaves the accumulators bit-identical. *)
  let grad_into st (vgl : Spo.vgl) k ~s ~(gx : float array)
      ~(gy : float array) ~(gz : float array) =
    if in_group st k then begin
      let kl = k - st.first in
      let denom = corrected_dot st kl vgl.Spo.v in
      gx.(s) <- gx.(s) +. (corrected_dot st kl vgl.Spo.gx /. denom);
      gy.(s) <- gy.(s) +. (corrected_dot st kl vgl.Spo.gy /. denom);
      gz.(s) <- gz.(s) +. (corrected_dot st kl vgl.Spo.gz /. denom)
    end

  (* Crowd ratio+gradient stage at the PROPOSED position: multiplies
     [ratio.(s)] (out-of-group factor is exactly 1., so skipping is
     bit-identical) and accumulates the gradient.  Mirrors the scalar
     [ratio_grad] arithmetic exactly, including the near-singular
     zero-gradient guard. *)
  let ratio_grad_into st (vgl : Spo.vgl) k ~s ~(ratio : float array)
      ~(gx : float array) ~(gy : float array) ~(gz : float array) =
    if in_group st k then begin
      let kl = k - st.first in
      Array.blit vgl.Spo.v 0 st.vbuf 0 st.n;
      load_psiv st;
      let r = det_ratio st kl in
      st.last_ratio := r;
      ratio.(s) <- ratio.(s) *. r;
      if abs_float r >= 1e-300 then begin
        gx.(s) <- gx.(s) +. (corrected_dot st kl vgl.Spo.gx /. r);
        gy.(s) <- gy.(s) +. (corrected_dot st kl vgl.Spo.gy /. r);
        gz.(s) <- gz.(s) +. (corrected_dot st kl vgl.Spo.gz /. r)
      end
    end

  (* ---- the W.t component over a [state] ---- *)

  let component (st : state) : W.t =
    let n = st.n and first = st.first in
    let spo = st.spo and timers = st.timers in
    let eval_vgl r =
      Timers.time timers "Bspline-vgh" (fun () -> spo.Spo.eval_vgl r st.vgl);
      st.vgl
    in
    let load_row_pos ps =
      for i = 0 to n - 1 do
        st.row_pos.(i) <- Ps.get ps (first + i)
      done
    in
    let evaluate_log ps =
      flush st;
      let b = Lazy.force st.v_rows in
      load_row_pos ps;
      Timers.time timers "Bspline-v" (fun () -> b.Spo.vrun st.row_pos n);
      for i = 0 to n - 1 do
        A.write_from b.Spo.vslots.(i) (M.data st.phim)
          ~pos:(i * M.ld st.phim) ~n
      done;
      let _sign, logd =
        Timers.time timers "DetUpdate" (fun () ->
            L.invert_transpose ~src:st.phim ~dst:st.binv)
      in
      st.log_abs := logd;
      logd
    in
    let ratio ps k =
      if not (in_group st k) then 1.
      else begin
        Timers.time timers "Bspline-v" (fun () ->
            spo.Spo.eval_v (Ps.active_pos ps) st.vbuf);
        load_psiv st;
        let r =
          Timers.time timers "DetUpdate" (fun () -> det_ratio st (k - first))
        in
        st.last_ratio := r;
        r
      end
    in
    let ratio_grad ps k =
      if not (in_group st k) then (1., Vec3.zero)
      else begin
        let kl = k - first in
        let vgl = eval_vgl (Ps.active_pos ps) in
        Array.blit vgl.Spo.v 0 st.vbuf 0 n;
        load_psiv st;
        let r = Timers.time timers "DetUpdate" (fun () -> det_ratio st kl) in
        st.last_ratio := r;
        if abs_float r < 1e-300 then (r, Vec3.zero)
        else begin
          let gx = corrected_dot st kl vgl.Spo.gx /. r in
          let gy = corrected_dot st kl vgl.Spo.gy /. r in
          let gz = corrected_dot st kl vgl.Spo.gz /. r in
          (r, Vec3.make gx gy gz)
        end
      end
    in
    let grad ps k =
      if not (in_group st k) then Vec3.zero
      else begin
        let kl = k - first in
        let vgl = eval_vgl (Ps.get ps k) in
        (* The denominator is 1 in exact arithmetic (row kl of M is the
           orbital vector at r_k); dividing by it stabilizes the mixed
           precision path.  With pending delayed updates every dot routes
           through the corrected form. *)
        let denom = corrected_dot st kl vgl.Spo.v in
        Vec3.make
          (corrected_dot st kl vgl.Spo.gx /. denom)
          (corrected_dot st kl vgl.Spo.gy /. denom)
          (corrected_dot st kl vgl.Spo.gz /. denom)
      end
    in
    let accept _ps k =
      if in_group st k then
        Timers.time timers "DetUpdate" (fun () -> accept_move st k)
    in
    let reject _ps _k = () in
    let accumulate_gl ps (g : W.gl) =
      flush st;
      let b = Lazy.force st.vgl_rows in
      load_row_pos ps;
      Timers.time timers "SPO-vgl" (fun () -> b.Spo.run st.row_pos n);
      for i = 0 to n - 1 do
        let k = first + i in
        let vgl = b.Spo.slots.(i) in
        let dot comp =
          A.dot_arr_into (M.data st.binv)
            ~pos:(i * M.ld st.binv)
            comp ~n st.pad 0;
          st.pad.(0)
        in
        let denom = dot vgl.Spo.v in
        let gx = dot vgl.Spo.gx /. denom in
        let gy = dot vgl.Spo.gy /. denom in
        let gz = dot vgl.Spo.gz /. denom in
        let lap = dot vgl.Spo.lap /. denom in
        g.W.ggx.(k) <- g.W.ggx.(k) +. gx;
        g.W.ggy.(k) <- g.W.ggy.(k) +. gy;
        g.W.ggz.(k) <- g.W.ggz.(k) +. gz;
        (* ∇² log D = ∇²D/D − |∇D/D|². *)
        g.W.glap.(k) <-
          g.W.glap.(k) +. lap -. ((gx *. gx) +. (gy *. gy) +. (gz *. gz))
      done
    in
    let register buf =
      for _ = 1 to (n * n) + 1 do
        Wbuffer.add buf 0.
      done
    in
    let update_buffer _ps buf =
      flush st;
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Wbuffer.put buf (M.get st.binv i j)
        done
      done;
      Wbuffer.put buf !(st.log_abs)
    in
    let copy_from_buffer _ps buf =
      flush st;
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          M.set st.binv i j (Wbuffer.get buf)
        done
      done;
      st.log_abs := Wbuffer.get buf
    in
    let bytes () = M.bytes st.binv + M.bytes st.phim in
    {
      W.name = Printf.sprintf "Det[%d..%d)" first (first + n);
      evaluate_log;
      ratio;
      ratio_grad;
      grad;
      accept;
      reject;
      accumulate_gl;
      register;
      update_buffer;
      copy_from_buffer;
      bytes;
    }

  let create ?timers ?scheme ~spo ~first ~count ps =
    component (make ?timers ?scheme ~spo ~first ~count ps)
end
