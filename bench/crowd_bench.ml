open Oqmc_containers
open Oqmc_core
open Oqmc_rng
open Oqmc_particle
open Oqmc_wavefunction

(* Full-pipeline crowd-batching benchmark: the machine-readable perf
   trajectory for the batched distance-table / Jastrow / delayed-
   determinant work.

   Four measurements, printed as a table and optionally written as JSON
   (BENCH_crowd.json) so regressions are diffable across PRs:

   1. full PbP sweep: the scalar per-engine sweep (the oracle, one
      engine per walker) vs. the fully batched crowd pipeline, with the
      bit-identity of the two paths asserted on each slot's local
      energy;
   2. per-kernel ns/move: scalar per-slot calls vs. the batched kernel,
      for the AA distance table and the J1/J2 Jastrow stages;
   3. allocation per move: the batched DistTable and Jastrow kernels
      must not allocate — asserted, not just reported;
   4. delayed determinant updates: ns/move across the delay-rank sweep
      (1 = Sherman-Morrison). *)

module Ps64 = Particle_set.Make (Precision.F64)
module AA64 = Dt_aa_soa.Make (Precision.F64) (Precision.F64)
module AB64 = Dt_ab_soa.Make (Precision.F64) (Precision.F64)
module J2_64 = Jastrow_two.Make (Precision.F64) (Precision.F64)
module J1_64 = Jastrow_one.Make (Precision.F64) (Precision.F64)
module Det64 = Slater_det.Make (Precision.F64) (Precision.F64)
module W64 = Wfc.Make (Precision.F64)

let time_per ~reps f =
  let t0 = Timers.now () in
  for _ = 1 to reps do
    f ()
  done;
  (Timers.now () -. t0) /. float_of_int reps

let minor_words_per ~reps f =
  f ();
  (* warmup: first-touch, lazy init *)
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps

(* ---- 1. full PbP sweep: scalar per-engine sweeps vs full pipeline ---- *)

type sweep_point = {
  system : string;
  crowd : int;
  moves_per_sweep : int;
  scalar_ns_per_move : float;
  pipeline_ns_per_move : float;
  speedup : float;
}

let bench_sweep ~name ~sys ~crowd ~sweeps =
  let factory = Build.factory ~variant:Variant.Current ~seed:5 sys in
  (* Both paths start from the same engines and configurations and draw
     from the same per-walker streams. *)
  let engines_and_streams engine =
    let rngs = Xoshiro.streams ~seed:7 crowd in
    for s = 0 to crowd - 1 do
      (engine s).Engine_api.randomize rngs.(s)
    done;
    Xoshiro.streams ~seed:11 crowd
  in
  let timed ~engine sweep =
    sweep ();
    (* warmup *)
    let t = time_per ~reps:sweeps sweep in
    (t, Array.init crowd (fun s -> (engine s).Engine_api.measure ()))
  in
  let ts, fs =
    let engines = Array.init crowd factory in
    let engine s = engines.(s) in
    let srngs = engines_and_streams engine in
    timed ~engine (fun () ->
        Array.iteri
          (fun s e -> ignore (e.Engine_api.sweep srngs.(s) ~tau:0.1))
          engines)
  in
  let tp, fp =
    let cr = Crowd.create ~factory ~base:0 ~size:crowd () in
    if not (Crowd.pipelined cr) then
      failwith "crowd_bench: pipeline did not engage";
    let engine = Crowd.engine cr in
    let srngs = engines_and_streams engine in
    timed ~engine (fun () ->
        ignore
          (Crowd.sweep cr ~active:crowd ~rng:(fun s -> srngs.(s)) ~tau:0.1))
  in
  (* same seeds, same draw order: the two paths must agree bit-for-bit *)
  Array.iteri
    (fun i a ->
      if not (Float.equal a fp.(i)) then
        failwith "crowd_bench: pipeline sweep deviates from the scalar sweep")
    fs;
  let moves = crowd * (factory 0).Engine_api.n_electrons in
  {
    system = name;
    crowd;
    moves_per_sweep = moves;
    scalar_ns_per_move = ts *. 1e9 /. float_of_int moves;
    pipeline_ns_per_move = tp *. 1e9 /. float_of_int moves;
    speedup = ts /. tp;
  }

let bench_sweeps () =
  [
    bench_sweep ~name:"harmonic-6"
      ~sys:(Oqmc_workloads.Validation.harmonic ~n:6 ~omega:1.0)
      ~crowd:8 ~sweeps:400;
    bench_sweep ~name:"NiO-32/r16"
      ~sys:(Oqmc_workloads.Builder.make ~reduction:16 ~with_nlpp:false
              Oqmc_workloads.Spec.nio32)
      ~crowd:8 ~sweeps:40;
  ]

(* ---- 2./3. per-kernel scalar vs batched, with alloc assertions ---- *)

type kernel_point = {
  kernel : string;
  kcrowd : int;
  scalar_ns_per_move : float;
  batch_ns_per_move : float;
  kernel_speedup : float;
  batch_words_per_move : float;
}

(* A crowd-sized fixture of independent electron sets with AA/AB tables
   and J1/J2 state, each slot staged mid-move (temp rows filled) so the
   ratio/accept kernels can be re-run in place. *)
let kernel_fixture ~crowd ~n =
  let lattice = Lattice.cubic 6. in
  let ions =
    let io =
      Ps64.create ~lattice
        [ { Particle_set.name = "ion"; charge = 4.; count = 4 } ]
    in
    let r = Xoshiro.create 3 in
    Ps64.randomize io (fun () -> Xoshiro.uniform r);
    io
  in
  let functors2 = Oqmc_workloads.Jastrow_sets.ee_set ~cutoff:2.9 in
  let functors1 = [| Oqmc_workloads.Jastrow_sets.one_body ~depth:0.4 ~range:0.9 ~cutoff:2.9 () |] in
  let slots =
    Array.init crowd (fun s ->
        let ps =
          Ps64.create ~lattice
            [
              { Particle_set.name = "u"; charge = -1.; count = n / 2 };
              { Particle_set.name = "d"; charge = -1.; count = n - (n / 2) };
            ]
        in
        let r = Xoshiro.create (100 + s) in
        Ps64.randomize ps (fun () -> Xoshiro.uniform r);
        let aa = AA64.create ps in
        AA64.evaluate aa ps;
        let ab = AB64.create ~sources:ions ps in
        AB64.evaluate ab ps;
        let j2 = J2_64.make_opt ~table:aa ~functors:functors2 ps in
        let j1 = J1_64.make_opt ~table:ab ~functors:functors1 ~ions ps in
        ignore ((J2_64.opt_component j2).W64.evaluate_log ps);
        ignore ((J1_64.opt_component j1).W64.evaluate_log ps);
        (ps, aa, ab, j2, j1))
  in
  let aab = AA64.make_batch (Array.map (fun (ps, aa, _, _, _) -> (aa, ps)) slots) in
  let abb = AB64.make_batch (Array.map (fun (_, _, ab, _, _) -> ab) slots) in
  (slots, aab, abb)

let stage_move ~slots ~k ~px ~py ~pz =
  let rng = Xoshiro.create 17 in
  Array.iteri
    (fun s (ps, aa, ab, _, _) ->
      let np =
        Vec3.add (Ps64.get ps k)
          (Vec3.make
             (Xoshiro.gaussian rng *. 0.3)
             (Xoshiro.gaussian rng *. 0.3)
             (Xoshiro.gaussian rng *. 0.3))
      in
      px.(s) <- np.Vec3.x;
      py.(s) <- np.Vec3.y;
      pz.(s) <- np.Vec3.z;
      AA64.prepare aa ps k;
      Ps64.propose ps k np;
      AA64.move aa ps k np;
      AB64.move ab np)
    slots

let bench_kernels ?(reps = 20_000) () =
  let crowd = 8 and n = 16 in
  let slots, aab, abb = kernel_fixture ~crowd ~n in
  let j2s = Array.map (fun (_, _, _, j2, _) -> j2) slots in
  let j1s = Array.map (fun (_, _, _, _, j1) -> j1) slots in
  let j2c = Array.map J2_64.opt_component j2s in
  let j1c = Array.map J1_64.opt_component j1s in
  let px = Array.make crowd 0.
  and py = Array.make crowd 0.
  and pz = Array.make crowd 0. in
  let ratio = Array.make crowd 1.
  and gx = Array.make crowd 0.
  and gy = Array.make crowd 0.
  and gz = Array.make crowd 0.
  and acc = Array.make crowd true in
  let k = n / 2 in
  stage_move ~slots ~k ~px ~py ~pz;
  let point ~kernel ~scalar ~batch =
    let st = time_per ~reps scalar in
    let bt = time_per ~reps batch in
    let bw = minor_words_per ~reps:2000 batch /. float_of_int crowd in
    (* the whole point of the batched path: zero allocation per move *)
    if bw > 1. then
      failwith
        (Printf.sprintf "crowd_bench: %s batch allocates %.1f words/move"
           kernel bw);
    {
      kernel;
      kcrowd = crowd;
      scalar_ns_per_move = st *. 1e9 /. float_of_int crowd;
      batch_ns_per_move = bt *. 1e9 /. float_of_int crowd;
      kernel_speedup = st /. bt;
      batch_words_per_move = bw;
    }
  in
  [
    point ~kernel:"dt_aa_prepare"
      ~scalar:(fun () ->
        Array.iter (fun (ps, aa, _, _, _) -> AA64.prepare aa ps k) slots)
      ~batch:(fun () -> AA64.prepare_batch aab ~k ~m:crowd);
    point ~kernel:"dt_aa_move"
      ~scalar:(fun () ->
        Array.iter
          (fun (ps, aa, _, _, _) ->
            AA64.move aa ps k (Ps64.active_pos ps))
          slots)
      ~batch:(fun () -> AA64.move_batch aab ~k ~px ~py ~pz ~m:crowd);
    point ~kernel:"dt_aa_accept"
      ~scalar:(fun () ->
        Array.iter (fun (_, aa, _, _, _) -> AA64.accept aa k) slots)
      ~batch:(fun () -> AA64.accept_batch aab ~k ~acc ~m:crowd);
    point ~kernel:"dt_ab_move"
      ~scalar:(fun () ->
        Array.iter
          (fun (ps, _, ab, _, _) -> AB64.move ab (Ps64.active_pos ps))
          slots)
      ~batch:(fun () -> AB64.move_batch abb ~px ~py ~pz ~m:crowd);
    point ~kernel:"j2_ratio_grad"
      ~scalar:(fun () ->
        Array.iteri
          (fun s (ps, _, _, _, _) -> ignore (j2c.(s).W64.ratio_grad ps k))
          slots)
      ~batch:(fun () ->
        Array.fill ratio 0 crowd 1.;
        Array.fill gx 0 crowd 0.;
        Array.fill gy 0 crowd 0.;
        Array.fill gz 0 crowd 0.;
        J2_64.ratio_grad_batch j2s ~k ~m:crowd ~ratio ~gx ~gy ~gz);
    point ~kernel:"j2_accept"
      ~scalar:(fun () ->
        Array.iteri
          (fun s (ps, _, _, _, _) -> j2c.(s).W64.accept ps k)
          slots)
      ~batch:(fun () -> J2_64.accept_batch j2s ~k ~m:crowd ~acc);
    point ~kernel:"j1_ratio_grad"
      ~scalar:(fun () ->
        Array.iteri
          (fun s (ps, _, _, _, _) -> ignore (j1c.(s).W64.ratio_grad ps k))
          slots)
      ~batch:(fun () ->
        Array.fill ratio 0 crowd 1.;
        Array.fill gx 0 crowd 0.;
        Array.fill gy 0 crowd 0.;
        Array.fill gz 0 crowd 0.;
        J1_64.ratio_grad_batch j1s ~k ~m:crowd ~ratio ~gx ~gy ~gz);
    point ~kernel:"j1_accept"
      ~scalar:(fun () ->
        Array.iteri
          (fun s (ps, _, _, _, _) -> j1c.(s).W64.accept ps k)
          slots)
      ~batch:(fun () -> J1_64.accept_batch j1s ~k ~m:crowd ~acc);
  ]

(* ---- 4. delayed determinant updates: delay-rank sweep ---- *)

type delay_point = { dn : int; delay : int; det_ns_per_move : float }

let bench_delay ?(n = 32) ?(sweeps = 100) ?(delays = [ 1; 2; 4; 8 ]) () =
  let lattice = Lattice.cubic 8. in
  List.map
    (fun kd ->
      let ps =
        Ps64.create ~lattice
          [ { Particle_set.name = "e"; charge = -1.; count = n } ]
      in
      let r = Xoshiro.create 23 in
      Ps64.randomize ps (fun () -> Xoshiro.uniform r);
      let spo = Spo_analytic.plane_waves ~lattice ~n_orb:n in
      let scheme =
        if kd = 1 then Det64.Sherman_morrison else Det64.Delayed kd
      in
      let d = Det64.create ~scheme ~spo ~first:0 ~count:n ps in
      ignore (d.W64.evaluate_log ps);
      let rng = Xoshiro.create 29 in
      let t =
        time_per ~reps:sweeps (fun () ->
            for k = 0 to n - 1 do
              let np =
                Vec3.add (Ps64.get ps k)
                  (Vec3.make
                     (Xoshiro.gaussian rng *. 0.05)
                     (Xoshiro.gaussian rng *. 0.05)
                     (Xoshiro.gaussian rng *. 0.05))
              in
              Ps64.propose ps k np;
              ignore (d.W64.ratio ps k);
              d.W64.accept ps k;
              Ps64.accept ps
            done)
      in
      { dn = n; delay = kd; det_ns_per_move = t *. 1e9 /. float_of_int n })
    delays

(* ---- reporting ---- *)

(* The best measured rank at the largest determinant order swept — what
   an autotuned run of that system would pick. *)
let best_delay delays =
  match delays with
  | [] -> 1
  | d0 :: _ ->
      let nmax = List.fold_left (fun a p -> max a p.dn) d0.dn delays in
      List.fold_left
        (fun (bk, bt) p ->
          if p.dn = nmax && p.det_ns_per_move < bt then
            (p.delay, p.det_ns_per_move)
          else (bk, bt))
        (1, infinity) delays
      |> fst

let json_of ~sweeps ~kernels ~delays =
  let b = Buffer.create 2048 in
  let f = Printf.bprintf in
  f b "{\n";
  f b "%s"
    (Report.bench_header ~precision:"f32" ~delay:(best_delay delays));
  f b "  \"full_sweep\": [\n";
  List.iteri
    (fun i p ->
      f b
        "    {\"system\": %S, \"crowd\": %d, \"moves_per_sweep\": %d, \
         \"scalar_ns_per_move\": %.1f, \"pipeline_ns_per_move\": %.1f, \
         \"speedup\": %.3f}%s\n"
        p.system p.crowd p.moves_per_sweep p.scalar_ns_per_move
        p.pipeline_ns_per_move p.speedup
        (if i = List.length sweeps - 1 then "" else ","))
    sweeps;
  f b "  ],\n";
  f b "  \"kernels\": [\n";
  List.iteri
    (fun i p ->
      f b
        "    {\"kernel\": %S, \"crowd\": %d, \"scalar_ns_per_move\": %.1f, \
         \"batch_ns_per_move\": %.1f, \"speedup\": %.3f, \
         \"batch_words_per_move\": %.2f}%s\n"
        p.kernel p.kcrowd p.scalar_ns_per_move p.batch_ns_per_move
        p.kernel_speedup p.batch_words_per_move
        (if i = List.length kernels - 1 then "" else ","))
    kernels;
  f b "  ],\n";
  f b "  \"delayed_updates\": [\n";
  List.iteri
    (fun i p ->
      f b "    {\"n\": %d, \"delay\": %d, \"det_ns_per_move\": %.1f}%s\n"
        p.dn p.delay p.det_ns_per_move
        (if i = List.length delays - 1 then "" else ","))
    delays;
  f b "  ]\n";
  f b "}\n";
  Buffer.contents b

let run ?json () =
  Printf.printf "== full PbP sweep: scalar per-engine vs pipeline ==\n%!";
  let sweeps = bench_sweeps () in
  (* ns/move always %.1f, words/move always %.2f — same precisions as
     the JSON record, so console and BENCH file never disagree. *)
  List.iter
    (fun p ->
      Printf.printf
        "  %-12s crowd %2d: scalar %.1f ns/move, pipeline %.1f ns/move  \
         (%.2fx)\n"
        p.system p.crowd p.scalar_ns_per_move p.pipeline_ns_per_move
        p.speedup)
    sweeps;
  Printf.printf "== per-kernel scalar vs batched ==\n%!";
  let kernels = bench_kernels () in
  List.iter
    (fun p ->
      Printf.printf
        "  %-14s crowd %2d: scalar %.1f ns/move, batch %.1f ns/move  \
         (%.2fx, %.2f words/move)\n"
        p.kernel p.kcrowd p.scalar_ns_per_move p.batch_ns_per_move
        p.kernel_speedup p.batch_words_per_move)
    kernels;
  Printf.printf "== delayed determinant updates ==\n%!";
  let delays =
    bench_delay ~n:32 () @ bench_delay ~n:96 ~sweeps:40 ()
  in
  List.iter
    (fun p ->
      Printf.printf "  n %3d delay %2d: %.1f ns/move\n" p.dn p.delay
        p.det_ns_per_move)
    delays;
  match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (json_of ~sweeps ~kernels ~delays);
      close_out oc;
      Printf.printf "wrote %s\n%!" path

(* Reduced run for the @bench-smoke alias: keeps every assertion — the
   pipeline-vs-scalar trajectory identity of [bench_sweep], the
   per-kernel zero-allocation failwiths of [bench_kernels], and the
   delayed-update regression guard — at a fraction of the reps, and
   skips the NiO build.  Timing numbers from this mode are noise except
   the k1/k8 ratio the guard checks. *)
let smoke () =
  let p =
    bench_sweep ~name:"harmonic-6"
      ~sys:(Oqmc_workloads.Validation.harmonic ~n:6 ~omega:1.0)
      ~crowd:8 ~sweeps:40
  in
  Printf.printf "crowd smoke: %s pipeline bit-identical to scalar sweeps\n"
    p.system;
  let kernels = bench_kernels ~reps:2_000 () in
  List.iter
    (fun q ->
      Printf.printf "crowd smoke: %-14s %.2f words/move\n" q.kernel
        q.batch_words_per_move)
    kernels;
  (* Delayed-update regression guard: at an order where the inverse no
     longer fits in L1 the blocked rank-8 flush must beat rank-1
     Sherman-Morrison.  Best-of-2 per rank; the tolerance absorbs
     single-core scheduler noise, not a real regression (the healthy
     ratio is ~0.7). *)
  let guard_n = 96 in
  let best k =
    let one () =
      match bench_delay ~n:guard_n ~sweeps:15 ~delays:[ k ] () with
      | [ p ] -> p.det_ns_per_move
      | _ -> assert false
    in
    Float.min (one ()) (one ())
  in
  let t1 = best 1 and t8 = best 8 in
  Printf.printf
    "crowd smoke: delayed n=%d  k1 %.1f ns/move, k8 %.1f ns/move (ratio \
     %.2f)\n"
    guard_n t1 t8 (t8 /. t1);
  if t8 > t1 *. 1.05 then
    failwith
      (Printf.sprintf
         "crowd_bench: delayed updates regressed: k=8 %.1f ns/move vs k=1 \
          %.1f ns/move at n=%d"
         t8 t1 guard_n);
  Printf.printf "crowd smoke: ok\n%!"
