open Oqmc_containers
open Oqmc_rng
open Oqmc_core
open Oqmc_autotune
module J = Oqmc_obs.Jsonx
module Spo = Oqmc_wavefunction.Spo

(* Tiled-orbital-layout benchmark (BENCH_tile.json): batched Bspline-vgh
   throughput of the tiled (array-of-SoA) table across the tile sweep vs
   the flat baseline — the one-tile table, which runs the same kernel —
   at NiO-32 and graphite orbital orders.

   Three measurements, printed as a table and written as JSON so the
   layout's perf trajectory is diffable across PRs:

   1. tile sweep: ns/eval of the crowd-batched vgl path at tile in
      {8, 16, 32, 64, n_orb} against the one-tile table, per workload —
      every tile size holds byte-identical coefficients, so any delta is
      pure memory behaviour;
   2. allocation per eval: the batched kernels must move ZERO words per
      eval at every tile size — asserted, not just reported;
   3. autotuned tile vs flat: the tuner's measured-refined tile pick on
      NiO-32 must not lose to the one-tile baseline beyond a noise
      margin (the @tile-smoke gate). *)

let n_pos = 4096

let spo_positions () =
  let rng = Xoshiro.create 41 in
  Array.init n_pos (fun _ ->
      Vec3.make
        (Xoshiro.uniform rng *. 15.)
        (Xoshiro.uniform rng *. 15.)
        (Xoshiro.uniform rng *. 7.))

(* Crowd-batched SPO-vgl timing with a long non-repeating position
   stream (the regime where the coefficient stream, not a cache-resident
   handful of stencils, is the cost).  Also returns minor words per
   eval, which must be zero for both layouts. *)
let vgl_ns_and_words (sys : System.t) ~reps =
  let spo = sys.System.spo in
  let pos = spo_positions () in
  let mask = n_pos - 1 in
  let crowd = 16 in
  let window = Array.make crowd pos.(0) in
  let b = spo.Spo.make_vgl_batch crowd in
  let run i =
    let base = i * crowd in
    for s = 0 to crowd - 1 do
      window.(s) <- pos.((base + s) land mask)
    done;
    b.Spo.run window crowd
  in
  let calls = max 1 (reps / crowd) in
  for i = 0 to (calls / 4) - 1 do
    run i
  done;
  (* warmup *)
  let w0 = Gc.minor_words () in
  let t0 = Timers.now () in
  for i = 0 to calls - 1 do
    run i
  done;
  let dt = Timers.now () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  ( dt *. 1e9 /. float_of_int (calls * crowd),
    dw /. float_of_int (calls * crowd) )

type point = { tile : int; (* 0 = flat (one tile) *) ns_per_eval : float }

type system_sweep = {
  sname : string;
  n_orb : int;
  points : point list;
  best_tile : int;
  best_speedup_vs_flat : float;
}

let reduction () =
  match Sys.getenv_opt "OQMC_BENCH_REDUCTION" with
  | Some r -> int_of_string r
  | None -> 8

(* The batched kernels must be allocation-free at every tile size:
   words/eval is measured on every sweep point and a hard failure, not a
   report line.  The threshold is below one word/eval so a single boxed
   float per eval trips it, while the constant measurement overhead (the
   [Gc.minor_words] probes box their own returns) stays under it. *)
let assert_no_alloc ~name ~tile words =
  if words > 0.5 then
    failwith
      (Printf.sprintf
         "tile_bench: batched vgl allocates %.1f words/eval (%s, tile=%d)"
         words name tile)

let sweep ~name ~spec =
  let red = reduction () in
  let mk ~layout ~tile =
    Oqmc_workloads.Builder.make ~reduction:red ~with_nlpp:false ~layout ~tile
      spec
  in
  let sys_flat = mk ~layout:`Flat ~tile:0 in
  let n_orb = sys_flat.System.spo.Spo.n_orb in
  let reps = 20_000 in
  let tiles =
    List.sort_uniq compare
      (List.filter (fun t -> t > 0 && t <= n_orb) [ 8; 16; 32; 64; n_orb ])
  in
  (* Every point is timed in alternation with the others, best of three
     rounds, so the host's load phases (and the first run's warm-up)
     do not land on one layout; every round asserts zero allocation. *)
  let systems =
    (0, sys_flat) :: List.map (fun tile -> (tile, mk ~layout:`Tiled ~tile)) tiles
  in
  let best_ns = List.map (fun (tile, _) -> (tile, ref infinity)) systems in
  for _ = 1 to 3 do
    List.iter
      (fun (tile, sys) ->
        let ns, w = vgl_ns_and_words sys ~reps in
        assert_no_alloc ~name ~tile w;
        let b = List.assoc tile best_ns in
        b := Float.min !b ns)
      systems
  done;
  let flat_ns = !(List.assoc 0 best_ns) in
  Printf.printf "  %s (n_orb=%d): flat %.1f ns/eval\n%!" name n_orb flat_ns;
  let points =
    List.map
      (fun (tile, b) ->
        if tile > 0 then
          Printf.printf "    tile %3d: %.1f ns/eval  (%.2fx vs flat)\n%!" tile
            !b (flat_ns /. !b);
        { tile; ns_per_eval = !b })
      best_ns
  in
  let best =
    List.fold_left
      (fun acc p -> if p.ns_per_eval < acc.ns_per_eval then p else acc)
      (List.hd points) points
  in
  Printf.printf "    best: %s (%.2fx vs flat)\n%!"
    (if best.tile = 0 then "flat" else Printf.sprintf "tile %d" best.tile)
    (flat_ns /. best.ns_per_eval);
  {
    sname = name;
    n_orb;
    points;
    best_tile = best.tile;
    best_speedup_vs_flat = flat_ns /. best.ns_per_eval;
  }

(* ---- autotuned tile vs flat (the @tile-smoke acceptance) ---- *)

type auto_result = {
  atile : int;
  flat_ns : float;
  tiled_ns : float;
  aspeedup : float;
}

let bench_autotuned ?(margin = 1.05) () =
  let red = reduction () in
  let mk ~layout ~tile =
    Oqmc_workloads.Builder.make ~reduction:red ~with_nlpp:false ~layout ~tile
      Oqmc_workloads.Spec.nio32
  in
  let sys_flat = mk ~layout:`Flat ~tile:0 in
  let n_orb = sys_flat.System.spo.Spo.n_orb in
  let choice =
    Tuner.choose ~refine:true ~walkers:8 ~domains:1 ~variant:Variant.Current
      ~precision:`F32 ~sys:sys_flat ()
  in
  Printf.printf "  %s\n%!" (Tuner.describe choice);
  (* The tuner's pick; flat (0) is the one-tile table, timed as a
     second table against the baseline. *)
  let atile =
    let t = choice.Tuner.knobs.Tuner.tile in
    if t > 0 then t else n_orb
  in
  let reps = 20_000 in
  (* The two layouts are timed in alternation, best of five rounds each:
     a load phase of a shared host then hits both alike instead of
     whichever was being timed, while a real slowdown of the tuned tile
     still shows in its best time. *)
  let sys_tiled = mk ~layout:`Tiled ~tile:atile in
  let flat_ns = ref infinity and tiled_ns = ref infinity in
  for _ = 1 to 5 do
    flat_ns := Float.min !flat_ns (fst (vgl_ns_and_words sys_flat ~reps));
    tiled_ns := Float.min !tiled_ns (fst (vgl_ns_and_words sys_tiled ~reps))
  done;
  let flat_ns = !flat_ns and tiled_ns = !tiled_ns in
  Printf.printf
    "  autotuned tile %d: %.1f ns/eval vs flat %.1f ns/eval  (%.2fx)\n%!"
    atile tiled_ns flat_ns (flat_ns /. tiled_ns);
  if tiled_ns > flat_ns *. margin then
    failwith
      (Printf.sprintf
         "tile_bench: autotuned tiled layout slower than flat beyond %.0f%% \
          (tile=%d: %.1f ns/eval vs %.1f)"
         ((margin -. 1.) *. 100.)
         atile tiled_ns flat_ns);
  { atile; flat_ns; tiled_ns; aspeedup = flat_ns /. tiled_ns }

(* ---- reporting ---- *)

let json_of ~sweeps ~auto =
  J.Obj
    [
      ( "header",
        J.Obj
          [
            ("schema", J.Num 1.);
            ("precision", J.Str "f32");
            ("delay", J.Num 1.);
          ] );
      ( "systems",
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("system", J.Str s.sname);
                   ("n_orb", J.Num (float_of_int s.n_orb));
                   ( "points",
                     J.Arr
                       (List.map
                          (fun p ->
                            J.Obj
                              [
                                ("tile", J.Num (float_of_int p.tile));
                                ("vgl_ns_per_eval", J.Num p.ns_per_eval);
                              ])
                          s.points) );
                   ("best_tile", J.Num (float_of_int s.best_tile));
                   ("best_speedup_vs_flat", J.Num s.best_speedup_vs_flat);
                 ])
             sweeps) );
      ( "autotuned",
        J.Obj
          [
            ("tile", J.Num (float_of_int auto.atile));
            ("flat_ns_per_eval", J.Num auto.flat_ns);
            ("tiled_ns_per_eval", J.Num auto.tiled_ns);
            ("speedup_vs_flat", J.Num auto.aspeedup);
          ] );
    ]

let run ?json () =
  Printf.printf "== tiled orbital layout: tile sweep vs flat ==\n%!";
  let sweeps =
    [
      sweep ~name:"NiO-32" ~spec:Oqmc_workloads.Spec.nio32;
      sweep ~name:"graphite" ~spec:Oqmc_workloads.Spec.graphite;
    ]
  in
  Printf.printf "== autotuned tile vs flat (NiO-32) ==\n%!";
  let auto = bench_autotuned () in
  match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (J.to_string (json_of ~sweeps ~auto));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n%!" path

(* Fast CI gate for the @tile-smoke alias: one workload's sweep for the
   zero-allocation assertion, plus the autotuned-tile-vs-flat check
   against the one-tile table at a 5% noise margin.  Fails loudly rather
   than reporting softly. *)
let smoke () =
  Printf.printf "tile smoke: NiO-32 sweep + autotuned tile vs flat\n%!";
  let s = sweep ~name:"NiO-32" ~spec:Oqmc_workloads.Spec.nio32 in
  let auto = bench_autotuned ~margin:1.05 () in
  Printf.printf
    "tile smoke: ok (best swept tile %s at %.2fx, autotuned tile %d at \
     %.2fx)\n%!"
    (if s.best_tile = 0 then "flat" else string_of_int s.best_tile)
    s.best_speedup_vs_flat auto.atile auto.aspeedup
