open Oqmc_containers
open Oqmc_spline

module B3_64 = Bspline3d.Make (Precision.F64)
module B3_32 = Bspline3d.Make (Precision.F32)

let check_bool = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

(* ---------- basis ---------- *)

let test_basis_partition_of_unity () =
  List.iter
    (fun t ->
      checkf 1e-14 "partition of unity" 1. (Bspline_basis.sum (Bspline_basis.value t));
      checkf 1e-14 "derivative sums to 0" 0.
        (Bspline_basis.sum (Bspline_basis.first t));
      checkf 1e-13 "second derivative sums to 0" 0.
        (Bspline_basis.sum (Bspline_basis.second t)))
    [ 0.; 0.25; 0.5; 0.75; 0.999 ]

let test_basis_derivative_fd () =
  let h = 1e-6 in
  List.iter
    (fun t ->
      let w1 = Bspline_basis.value (t +. h) and w0 = Bspline_basis.value (t -. h) in
      let d = Bspline_basis.first t in
      let fd =
        Array.map2 (fun a b -> (a -. b) /. (2. *. h))
          (Bspline_basis.to_array w1) (Bspline_basis.to_array w0)
      in
      Array.iteri
        (fun i f -> checkf 1e-5 "fd matches" f (Bspline_basis.to_array d).(i))
        fd)
    [ 0.2; 0.5; 0.8 ]

(* ---------- 1-D spline ---------- *)

let test_spline1d_interpolates () =
  let f r = exp (-.r) *. cos r in
  let s = Cubic_spline_1d.fit ~f ~cutoff:4. ~intervals:40 () in
  for i = 0 to 40 do
    let r = 4. *. float_of_int i /. 40. in
    if r < 4. then checkf 1e-10 "interpolation at knots" (f r) (Cubic_spline_1d.evaluate s r)
  done

let test_spline1d_accuracy_between_knots () =
  let f r = sin r in
  let s = Cubic_spline_1d.fit ~f ~deriv0:(Some 1.) ~deriv_cut:(Some (cos 3.))
      ~cutoff:3. ~intervals:60 ()
  in
  let max_err = ref 0. in
  for i = 0 to 599 do
    let r = 3. *. (float_of_int i +. 0.5) /. 600. in
    max_err := Float.max !max_err (abs_float (Cubic_spline_1d.evaluate s r -. f r))
  done;
  check_bool "midpoint error small" true (!max_err < 1e-6)

let test_spline1d_cutoff_zero () =
  let s = Cubic_spline_1d.fit ~f:(fun r -> 1. -. r) ~cutoff:1. ~intervals:8 () in
  checkf 1e-12 "at cutoff" 0. (Cubic_spline_1d.evaluate s 1.);
  checkf 1e-12 "beyond cutoff" 0. (Cubic_spline_1d.evaluate s 5.);
  let v, dv, d2v = Cubic_spline_1d.evaluate_vgl s 2. in
  checkf 1e-12 "vgl v" 0. v;
  checkf 1e-12 "vgl dv" 0. dv;
  checkf 1e-12 "vgl d2v" 0. d2v

let test_spline1d_cusp () =
  (* Prescribed derivative at 0 (the Jastrow cusp condition). *)
  let cusp = -0.5 in
  let f r = -0.3 *. exp (-2. *. r) in
  let s = Cubic_spline_1d.fit ~f ~deriv0:(Some cusp) ~cutoff:3. ~intervals:30 () in
  let _, dv, _ = Cubic_spline_1d.evaluate_vgl s 1e-12 in
  checkf 1e-6 "cusp slope" cusp dv

let test_spline1d_vgl_fd () =
  let f r = exp (-.r *. r) in
  let s = Cubic_spline_1d.fit ~f ~cutoff:2.5 ~intervals:50 () in
  let h = 1e-5 in
  List.iter
    (fun r ->
      let v, dv, d2v = Cubic_spline_1d.evaluate_vgl s r in
      let vp = Cubic_spline_1d.evaluate s (r +. h) in
      let vm = Cubic_spline_1d.evaluate s (r -. h) in
      checkf 1e-12 "value consistent" v (Cubic_spline_1d.evaluate s r);
      checkf 1e-5 "first derivative" ((vp -. vm) /. (2. *. h)) dv;
      checkf 1e-3 "second derivative" ((vp +. vm -. (2. *. v)) /. (h *. h)) d2v)
    [ 0.3; 0.9; 1.7; 2.2 ]

let test_spline1d_invalid () =
  Alcotest.check_raises "too few coefficients"
    (Invalid_argument "Cubic_spline_1d: need at least 4 coefficients")
    (fun () -> ignore (Cubic_spline_1d.of_coefficients ~cutoff:1. [| 1.; 2. |]))

let test_spline1d_narrow () =
  (* narrow rounds every control point once through f32 storage
     (the precision_jastrow knob): idempotent, halves the footprint,
     and since the cubic basis weights are a partition of unity the
     evaluated values move by at most one f32 rounding of the largest
     coefficient. *)
  let f r = -0.3 *. exp (-1.7 *. r) in
  let s = Cubic_spline_1d.fit ~f ~cutoff:3. ~intervals:24 () in
  check_bool "fresh table is wide" false (Cubic_spline_1d.is_narrowed s);
  let n1 = Cubic_spline_1d.narrow s in
  let n2 = Cubic_spline_1d.narrow n1 in
  check_bool "narrowed" true (Cubic_spline_1d.is_narrowed n1);
  check_bool "idempotent" true (n1 == n2);
  check_bool "wide table untouched" false (Cubic_spline_1d.is_narrowed s);
  Alcotest.(check int) "bytes halve"
    (Cubic_spline_1d.bytes s / 2)
    (Cubic_spline_1d.bytes n1);
  let cmax =
    Array.fold_left
      (fun a c -> Float.max a (abs_float c))
      0.
      (Cubic_spline_1d.coefficients s)
  in
  let bound = cmax *. 1.2e-7 in
  List.iter
    (fun r ->
      let v = Cubic_spline_1d.evaluate s r in
      let vn = Cubic_spline_1d.evaluate n1 r in
      check_bool "eval drift bounded" true (abs_float (v -. vn) <= bound))
    [ 0.; 0.2; 0.77; 1.3; 2.1; 2.9 ]

(* ---------- tridiag ---------- *)

let test_tridiag_simple () =
  (* [4 1; 1 4; .. ] x = b, verified by multiplying back. *)
  let n = 12 in
  let rhs = Array.init n (fun i -> float_of_int (i + 1)) in
  let x = Tridiag.solve ~diag:4. ~off:1. rhs in
  for i = 0 to n - 1 do
    let v =
      (4. *. x.(i))
      +. (if i > 0 then x.(i - 1) else 0.)
      +. if i < n - 1 then x.(i + 1) else 0.
    in
    checkf 1e-10 "residual" rhs.(i) v
  done

let test_tridiag_cyclic () =
  let n = 16 in
  let rhs = Array.init n (fun i -> sin (float_of_int i)) in
  let x = Tridiag.solve_cyclic ~diag:4. ~off:1. rhs in
  for i = 0 to n - 1 do
    let v =
      (4. *. x.(i)) +. x.((i + 1) mod n) +. x.((i - 1 + n) mod n)
    in
    checkf 1e-10 "cyclic residual" rhs.(i) v
  done

(* ---------- 3-D spline ---------- *)

let test_bspline3d_constant () =
  (* A constant function must be reproduced exactly (partition of unity). *)
  let t = B3_64.create ~nx:6 ~ny:6 ~nz:6 ~n_orb:2 in
  B3_64.fill t (fun ~orb ~i:_ ~j:_ ~k:_ -> if orb = 0 then 2.5 else -1.
  );
  let out = Array.make 2 0. in
  List.iter
    (fun (x, y, z) ->
      B3_64.eval_v t ~u0:x ~u1:y ~u2:z out;
      checkf 1e-12 "constant orb0" 2.5 out.(0);
      checkf 1e-12 "constant orb1" (-1.) out.(1))
    [ (0.1, 0.2, 0.3); (0.9, 0.95, 0.05); (0.5, 0.5, 0.5) ]

let wrap_xy x = x

let test_bspline3d_interpolation () =
  (* Fit a smooth periodic function and check mid-grid accuracy. *)
  let nx = 16 and ny = 16 and nz = 16 in
  let f x y z =
    cos (2. *. Float.pi *. x) *. sin (2. *. Float.pi *. y)
    +. (0.5 *. cos (2. *. Float.pi *. z))
  in
  let t = B3_64.create ~nx ~ny ~nz ~n_orb:1 in
  B3_64.fit_periodic t ~samples:(fun ~orb:_ ~ix ~iy ~iz ->
      f
        (float_of_int ix /. float_of_int nx)
        (float_of_int iy /. float_of_int ny)
        (float_of_int iz /. float_of_int nz));
  let out = Array.make 1 0. in
  (* At grid points the spline interpolates exactly. *)
  B3_64.eval_v t ~u0:0.25 ~u1:0.5 ~u2:0.75 out;
  checkf 1e-10 "grid point" (f 0.25 0.5 0.75) out.(0);
  (* Between grid points the cubic converges ~h⁴; 16³ gives ≲1e-3. *)
  let max_err = ref 0. in
  for i = 0 to 20 do
    let x = (float_of_int i +. 0.5) /. 21. in
    B3_64.eval_v t ~u0:x ~u1:(wrap_xy x) ~u2:0.31 out;
    max_err := Float.max !max_err (abs_float (out.(0) -. f x (wrap_xy x) 0.31))
  done;
  check_bool "midpoint accuracy" true (!max_err < 5e-3)

let test_bspline3d_vgh_fd () =
  let nx = 12 and ny = 12 and nz = 12 in
  let f x y z =
    exp (cos (2. *. Float.pi *. x)) *. sin (2. *. Float.pi *. (y +. z))
  in
  let t = B3_64.create ~nx ~ny ~nz ~n_orb:1 in
  B3_64.fit_periodic t ~samples:(fun ~orb:_ ~ix ~iy ~iz ->
      f
        (float_of_int ix /. float_of_int nx)
        (float_of_int iy /. float_of_int ny)
        (float_of_int iz /. float_of_int nz));
  let buf = B3_64.make_vgh_buf t in
  let out = Array.make 1 0. in
  let h = 1e-5 in
  let eval x y z =
    B3_64.eval_v t ~u0:x ~u1:y ~u2:z out;
    out.(0)
  in
  List.iter
    (fun (x, y, z) ->
      B3_64.eval_vgh t ~u0:x ~u1:y ~u2:z buf;
      checkf 1e-10 "v" (eval x y z) buf.B3_64.v.(0);
      checkf 2e-4 "gx"
        ((eval (x +. h) y z -. eval (x -. h) y z) /. (2. *. h))
        buf.B3_64.gx.(0);
      checkf 2e-4 "gy"
        ((eval x (y +. h) z -. eval x (y -. h) z) /. (2. *. h))
        buf.B3_64.gy.(0);
      checkf 2e-4 "gz"
        ((eval x y (z +. h) -. eval x y (z -. h)) /. (2. *. h))
        buf.B3_64.gz.(0);
      checkf 0.5 "hxx"
        ((eval (x +. h) y z +. eval (x -. h) y z -. (2. *. eval x y z))
        /. (h *. h))
        buf.B3_64.hxx.(0);
      checkf 0.5 "hxy"
        ((eval (x +. h) (y +. h) z -. eval (x +. h) (y -. h) z
          -. eval (x -. h) (y +. h) z +. eval (x -. h) (y -. h) z)
        /. (4. *. h *. h))
        buf.B3_64.hxy.(0))
    [ (0.13, 0.41, 0.77); (0.6, 0.2, 0.9) ]

let test_bspline3d_periodic_wrap () =
  let t = B3_64.create ~nx:8 ~ny:8 ~nz:8 ~n_orb:1 in
  let rng = Oqmc_rng.Xoshiro.create 9 in
  B3_64.fill t (fun ~orb:_ ~i:_ ~j:_ ~k:_ ->
      Oqmc_rng.Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.);
  let a = Array.make 1 0. and b = Array.make 1 0. in
  B3_64.eval_v t ~u0:0.125 ~u1:0.3 ~u2:0.99 a;
  B3_64.eval_v t ~u0:1.125 ~u1:(-0.7) ~u2:(0.99 -. 3.) b;
  checkf 1e-12 "periodic images equal" a.(0) b.(0)

let test_bspline3d_f32_close_to_f64 () =
  let nx = 8 in
  (* n_orb = 16 so both precisions pad to the same orbital stride and the
     byte comparison isolates the element width. *)
  let t64 = B3_64.create ~nx ~ny:nx ~nz:nx ~n_orb:16 in
  let t32 = B3_32.create ~nx ~ny:nx ~nz:nx ~n_orb:16 in
  let rng = Oqmc_rng.Xoshiro.create 10 in
  let vals = Array.init (nx * nx * nx * 16) (fun _ ->
      Oqmc_rng.Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.)
  in
  let idx ~orb ~i ~j ~k = ((((i * nx) + j) * nx) + k) * 16 + orb in
  B3_64.fill t64 (fun ~orb ~i ~j ~k -> vals.(idx ~orb ~i ~j ~k));
  B3_32.fill t32 (fun ~orb ~i ~j ~k -> vals.(idx ~orb ~i ~j ~k));
  let o64 = Array.make 16 0. and o32 = Array.make 16 0. in
  B3_64.eval_v t64 ~u0:0.3 ~u1:0.6 ~u2:0.9 o64;
  B3_32.eval_v t32 ~u0:0.3 ~u1:0.6 ~u2:0.9 o32;
  for m = 0 to 15 do
    check_bool "f32 close" true (abs_float (o64.(m) -. o32.(m)) < 1e-5)
  done;
  check_bool "f32 table half the size" true
    (B3_32.bytes t32 * 2 = B3_64.bytes t64)

let test_bspline3d_table_bytes () =
  (* Table 1's B-spline column corresponds to complex double coefficients
     (16 bytes): NiO-64 (80³ grid, 240 SPOs) → 2.1 GB, and the other three
     workloads match as well. *)
  let gb ~nx ~ny ~nz ~n_orb =
    float_of_int (B3_64.table_bytes ~nx ~ny ~nz ~n_orb ~elt_bytes:16) /. 1e9
  in
  let near label expect got =
    check_bool label true (abs_float (got -. expect) /. expect < 0.15)
  in
  near "NiO-64 ~2.1 GB" 2.1 (gb ~nx:80 ~ny:80 ~nz:80 ~n_orb:240);
  near "NiO-32 ~1.3 GB" 1.3 (gb ~nx:80 ~ny:80 ~nz:80 ~n_orb:144);
  near "Be-64 ~1.4 GB" 1.4 (gb ~nx:84 ~ny:84 ~nz:144 ~n_orb:81);
  near "Graphite ~0.1 GB" 0.1 (gb ~nx:28 ~ny:28 ~nz:80 ~n_orb:80)

module B3T = Bspline3d_tiled.Make (Precision.F64)

let test_tiled_matches_untiled () =
  let nx = 8 and n_orb = 10 in
  let rng = Oqmc_rng.Xoshiro.create 33 in
  let vals = Array.init (nx * nx * nx * n_orb) (fun _ ->
      Oqmc_rng.Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.)
  in
  let idx ~orb ~i ~j ~k = ((((i * nx) + j) * nx) + k) * n_orb + orb in
  let plain = B3_64.create ~nx ~ny:nx ~nz:nx ~n_orb in
  B3_64.fill plain (fun ~orb ~i ~j ~k -> vals.(idx ~orb ~i ~j ~k));
  List.iter
    (fun tile ->
      let tiled = B3T.create ~nx ~ny:nx ~nz:nx ~n_orb ~tile in
      B3T.fill tiled (fun ~orb ~i ~j ~k -> vals.(idx ~orb ~i ~j ~k));
      let o1 = Array.make n_orb 0. and o2 = Array.make n_orb 0. in
      let b1 = B3_64.make_vgh_buf plain and b2 = B3T.make_vgh_buf tiled in
      List.iter
        (fun (x, y, z) ->
          B3_64.eval_v plain ~u0:x ~u1:y ~u2:z o1;
          B3T.eval_v tiled ~u0:x ~u1:y ~u2:z o2;
          for m = 0 to n_orb - 1 do
            checkf 1e-12 "tiled value" o1.(m) o2.(m)
          done;
          B3_64.eval_vgh plain ~u0:x ~u1:y ~u2:z b1;
          B3T.eval_vgh tiled ~u0:x ~u1:y ~u2:z b2;
          for m = 0 to n_orb - 1 do
            checkf 1e-12 "tiled gx" b1.B3_64.gx.(m) b2.B3T.B.gx.(m);
            checkf 1e-12 "tiled hzz" b1.B3_64.hzz.(m) b2.B3T.B.hzz.(m)
          done)
        [ (0.1, 0.5, 0.9); (0.77, 0.2, 0.41) ])
    [ 1; 3; 4; 10; 16 ]

(* The batched crowd path: tiled must be BIT-identical to flat at f64 —
   exact float equality, not a tolerance — because the fused tiled
   phase 2 consumes the same doubles in the same order as the flat
   kernels.  This is the production path (oqmc_run's layout=tiled). *)
let test_tiled_batch_bit_identical () =
  let nx = 8 and n_orb = 10 and cap = 5 in
  let rng = Oqmc_rng.Xoshiro.create 77 in
  let vals = Array.init (nx * nx * nx * n_orb) (fun _ ->
      Oqmc_rng.Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.)
  in
  let idx ~orb ~i ~j ~k = ((((i * nx) + j) * nx) + k) * n_orb + orb in
  let plain = B3_64.create ~nx ~ny:nx ~nz:nx ~n_orb in
  B3_64.fill plain (fun ~orb ~i ~j ~k -> vals.(idx ~orb ~i ~j ~k));
  let u0 = Array.init cap (fun _ -> Oqmc_rng.Xoshiro.uniform rng) in
  let u1 = Array.init cap (fun _ -> Oqmc_rng.Xoshiro.uniform rng) in
  let u2 = Array.init cap (fun _ -> Oqmc_rng.Xoshiro.uniform rng) in
  let fb = B3_64.make_vgh_batch plain ~cap in
  let fv = B3_64.make_v_batch plain ~cap in
  B3_64.eval_vgh_batch plain fb ~n:cap ~u0 ~u1 ~u2;
  B3_64.eval_v_batch plain fv ~n:cap ~u0 ~u1 ~u2;
  List.iter
    (fun tile ->
      let tiled = B3T.create ~nx ~ny:nx ~nz:nx ~n_orb ~tile in
      B3T.fill tiled (fun ~orb ~i ~j ~k -> vals.(idx ~orb ~i ~j ~k));
      let tb = B3T.make_vgh_batch tiled ~cap in
      let tv = B3T.make_v_batch tiled ~cap in
      B3T.eval_vgh_batch tiled tb ~n:cap ~u0 ~u1 ~u2;
      B3T.eval_v_batch tiled tv ~n:cap ~u0 ~u1 ~u2;
      for s = 0 to cap - 1 do
        let f = fb.B3_64.outs.(s) and t = tb.B3T.B.outs.(s) in
        for m = 0 to n_orb - 1 do
          check_bool "batch v bit-identical" true
            (fv.B3_64.vouts.(s).(m) = tv.B3T.B.vouts.(s).(m));
          List.iter2
            (fun a b -> check_bool "batch vgh bit-identical" true (a = b))
            [ f.B3_64.v.(m); f.B3_64.gx.(m); f.B3_64.gy.(m);
              f.B3_64.gz.(m); f.B3_64.hxx.(m); f.B3_64.hxy.(m);
              f.B3_64.hxz.(m); f.B3_64.hyy.(m); f.B3_64.hyz.(m);
              f.B3_64.hzz.(m) ]
            [ t.B3_64.v.(m); t.B3_64.gx.(m); t.B3_64.gy.(m);
              t.B3_64.gz.(m); t.B3_64.hxx.(m); t.B3_64.hxy.(m);
              t.B3_64.hxz.(m); t.B3_64.hyy.(m); t.B3_64.hyz.(m);
              t.B3_64.hzz.(m) ]
        done
      done)
    [ 1; 3; 4; 10; 16 ]

let test_tiled_shapes () =
  let t = B3T.create ~nx:8 ~ny:8 ~nz:8 ~n_orb:10 ~tile:4 in
  Alcotest.(check int) "tiles" 3 (B3T.n_tiles t);
  Alcotest.(check int) "orbitals" 10 (B3T.n_orb t);
  Alcotest.check_raises "orb range"
    (Invalid_argument "Bspline3d_tiled: orbital out of range") (fun () ->
      ignore (B3T.get_base t ~orb:10 ~i:0 ~j:0 ~k:0))

let prop_partition_of_unity =
  QCheck.Test.make ~name:"basis partition of unity" ~count:500
    QCheck.(float_range 0. 0.999999)
    (fun t -> abs_float (Bspline_basis.sum (Bspline_basis.value t) -. 1.) < 1e-12)

(* Random tile sizes never change the results: every batched and scalar
   evaluation of a tiled table — including the one-tile (flat) table,
   tile = n_orb — equals the scalar [eval_v]/[eval_vgh] oracle of a
   single-block table bit for bit, at f64 and at f32 storage. *)
module Tile_oracle (R : Precision.REAL) = struct
  module B = Bspline3d.Make (R)
  module T = Bspline3d_tiled.Make (R)

  let nx = 6
  let n_orb = 7

  let vals =
    let rng = Oqmc_rng.Xoshiro.create 91 in
    Array.init (nx * nx * nx * n_orb) (fun _ ->
        Oqmc_rng.Xoshiro.uniform_range rng ~lo:(-1.) ~hi:1.)

  let coeff ~orb ~i ~j ~k = vals.(((((i * nx) + j) * nx) + k) * n_orb + orb)

  let oracle =
    lazy
      (let p = B.create ~nx ~ny:nx ~nz:nx ~n_orb in
       B.fill p coeff;
       p)

  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let same_vgh (f : B.vgh_buf) (t : B.vgh_buf) =
    let ok = ref true in
    for m = 0 to n_orb - 1 do
      List.iter2
        (fun a b -> if not (same a.(m) b.(m)) then ok := false)
        [ f.B.v; f.B.gx; f.B.gy; f.B.gz; f.B.hxx; f.B.hxy; f.B.hxz;
          f.B.hyy; f.B.hyz; f.B.hzz ]
        [ t.B.v; t.B.gx; t.B.gy; t.B.gz; t.B.hxx; t.B.hxy; t.B.hxz;
          t.B.hyy; t.B.hyz; t.B.hzz ]
    done;
    !ok

  let holds ~tile (x, y, z) =
    let plain = Lazy.force oracle in
    let v = Array.make n_orb 0. and g = B.make_vgh_buf plain in
    B.eval_v plain ~u0:x ~u1:y ~u2:z v;
    B.eval_vgh plain ~u0:x ~u1:y ~u2:z g;
    let tiled = T.create ~nx ~ny:nx ~nz:nx ~n_orb ~tile in
    T.fill tiled coeff;
    let u0 = [| x |] and u1 = [| y |] and u2 = [| z |] in
    let tb = T.make_vgh_batch tiled ~cap:1 in
    let tv = T.make_v_batch tiled ~cap:1 in
    T.eval_vgh_batch tiled tb ~n:1 ~u0 ~u1 ~u2;
    T.eval_v_batch tiled tv ~n:1 ~u0 ~u1 ~u2;
    let sv = Array.make n_orb 0. and sg = T.make_vgh_buf tiled in
    T.eval_v tiled ~u0:x ~u1:y ~u2:z sv;
    T.eval_vgh tiled ~u0:x ~u1:y ~u2:z sg;
    Array.for_all2 same v tv.B.vouts.(0)
    && Array.for_all2 same v sv
    && same_vgh g tb.B.outs.(0)
    && same_vgh g sg

  let prop name =
    QCheck.Test.make ~name ~count:30
      QCheck.(
        pair (int_range 1 12)
          (triple (float_range 0. 0.999) (float_range 0. 0.999)
             (float_range 0. 0.999)))
      (fun (tile, pos) -> holds ~tile pos && holds ~tile:n_orb pos)
end

module Tile_oracle_64 = Tile_oracle (Precision.F64)
module Tile_oracle_32 = Tile_oracle (Precision.F32)

let prop_tile_invariant =
  Tile_oracle_64.prop "tile size never changes batched results"

let prop_tile_invariant_f32 =
  Tile_oracle_32.prop "tile size never changes f32 results"

let prop_spline_zero_outside =
  QCheck.Test.make ~name:"1d spline zero outside cutoff" ~count:200
    QCheck.(pair (float_range 1.0 10.) (float_range 0. 20.))
    (fun (cutoff, r) ->
      let s =
        Cubic_spline_1d.fit ~f:(fun x -> 1. +. x) ~cutoff ~intervals:10 ()
      in
      r < cutoff || Cubic_spline_1d.evaluate s r = 0.)

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "spline"
    [
      ( "basis",
        [
          Alcotest.test_case "partition of unity" `Quick
            test_basis_partition_of_unity;
          Alcotest.test_case "derivative fd" `Quick test_basis_derivative_fd;
        ] );
      ( "spline1d",
        [
          Alcotest.test_case "interpolates" `Quick test_spline1d_interpolates;
          Alcotest.test_case "between knots" `Quick
            test_spline1d_accuracy_between_knots;
          Alcotest.test_case "cutoff zero" `Quick test_spline1d_cutoff_zero;
          Alcotest.test_case "cusp" `Quick test_spline1d_cusp;
          Alcotest.test_case "vgl fd" `Quick test_spline1d_vgl_fd;
          Alcotest.test_case "invalid" `Quick test_spline1d_invalid;
          Alcotest.test_case "narrow (f32 coefficients)" `Quick
            test_spline1d_narrow;
        ] );
      ( "tridiag",
        [
          Alcotest.test_case "simple" `Quick test_tridiag_simple;
          Alcotest.test_case "cyclic" `Quick test_tridiag_cyclic;
        ] );
      ( "bspline3d",
        [
          Alcotest.test_case "constant" `Quick test_bspline3d_constant;
          Alcotest.test_case "interpolation" `Quick test_bspline3d_interpolation;
          Alcotest.test_case "vgh fd" `Quick test_bspline3d_vgh_fd;
          Alcotest.test_case "periodic wrap" `Quick test_bspline3d_periodic_wrap;
          Alcotest.test_case "f32 vs f64" `Quick test_bspline3d_f32_close_to_f64;
          Alcotest.test_case "table bytes" `Quick test_bspline3d_table_bytes;
          Alcotest.test_case "tiled matches untiled" `Quick
            test_tiled_matches_untiled;
          Alcotest.test_case "tiled batch bit-identical" `Quick
            test_tiled_batch_bit_identical;
          Alcotest.test_case "tiled shapes" `Quick test_tiled_shapes;
        ] );
      ( "properties",
        qt
          [
            prop_partition_of_unity; prop_spline_zero_outside;
            prop_tile_invariant; prop_tile_invariant_f32;
          ] );
    ]
