open Oqmc_wavefunction
open Oqmc_core
open Oqmc_perfmodel
module Mx = Oqmc_obs.Metrics
module J = Oqmc_obs.Jsonx

(* Efficiency audit: measured generation wall time and per-kernel timer
   totals vs the calibrated roofline projection for the same system and
   run shape.

   The projection side reuses exactly the analytic pipeline the tuner
   optimizes over — {!Opcount.step_costs} for the per-kernel op/byte
   counts, {!Roofline.project_all} through the machine descriptor — so
   the audit answers "how close is this run to the model the knobs were
   chosen against", not "how close to an aspirational peak".  The
   measured side reads the global {!Oqmc_obs.Metrics} registry: the
   supervisor's [sup.generation_s] histogram and the [timer_us.*]
   kernel counters that both executors (forked rank piggyback, local
   {!Oqmc_dist.Supervisor} timer absorption) feed.  Everything is
   published back into the registry as [audit.*] gauges, which the
   status snapshot echoes — a Status query surfaces the live ratio. *)

type t = {
  machine : Machine.t;
  calibrated : bool;  (* machine came from on-node calibration *)
  points : Roofline.point list;
  step_s : float;  (* modeled one-walker step seconds *)
  projected_gen_s : float;  (* modeled generation wall for this shape *)
  walkers : int;
  lanes : int;  (* ranks × domains: the ideal parallel width *)
}

type kernel_verdict = {
  kernel : string;
  measured_s : float;  (* total seconds in this kernel, all lanes *)
  measured_frac : float;  (* share of total measured kernel time *)
  projected_frac : float;  (* share the roofline predicts *)
}

type report = {
  machine_name : string;
  calibrated : bool;
  projected_gen_s : float;
  measured_gen_s : float;
  efficiency : float;  (* projected / measured: 1.0 = at the model *)
  gens : int;  (* generations behind the measured mean *)
  kernels : kernel_verdict list;
}

let create ?machine ?(walkers = 8) ?(domains = 1) ?(ranks = 1) ?(tile = 0)
    ~variant ~precision ~(sys : System.t) () =
  let calibrated = machine = None in
  let mach = match machine with Some m -> m | None -> Calibrate.machine () in
  let n = System.n_electrons sys in
  let n_ion = System.n_ions sys in
  let n_spo = sys.System.spo.Spo.n_orb in
  let elt_bytes = match precision with `F32 -> 4 | `F64 -> 8 in
  let layout =
    match Variant.layout variant with
    | Variant.Store -> `Store
    | Variant.Otf -> `Otf
  in
  let has_pp = sys.System.ham.System.nlpp <> None in
  let costs =
    Opcount.step_costs
      {
        Opcount.n;
        n_ion;
        n_spo;
        elt_bytes;
        layout;
        acceptance = Opcount.default_acceptance;
        nlpp_evals = Opcount.nlpp_evals_estimate ~n ~has_pp;
        tile;
      }
  in
  let points = Roofline.project_all mach costs in
  let step_s = Roofline.total_time points in
  let lanes = max 1 ranks * max 1 domains in
  let projected_gen_s =
    step_s *. float_of_int (max 1 walkers) /. float_of_int lanes
  in
  {
    machine = mach;
    calibrated;
    points;
    step_s;
    projected_gen_s;
    walkers;
    lanes;
  }

let timer_prefix = "timer_us."

(* [timer_us.<kernel>] counters from a registry snapshot, as
   (kernel, seconds). *)
let registry_kernel_seconds snap =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Mx.Counter c
        when String.length name > String.length timer_prefix
             && String.sub name 0 (String.length timer_prefix) = timer_prefix
        ->
          Some
            ( String.sub name (String.length timer_prefix)
                (String.length name - String.length timer_prefix),
              float_of_int c /. 1e6 )
      | _ -> None)
    snap

let observe ?measured_gen_s ?kernel_seconds t =
  let snap = Mx.snapshot () in
  let measured =
    match measured_gen_s with
    | Some _ as m -> Option.map (fun s -> (s, 0)) m
    | None -> (
        match Mx.find snap "sup.generation_s" with
        | Some (Mx.Histogram hv) when hv.Mx.count > 0 ->
            Some (hv.Mx.sum /. float_of_int hv.Mx.count, hv.Mx.count)
        | _ -> None)
  in
  match measured with
  | None -> None
  | Some (measured_gen_s, gens) ->
      let kernel_s =
        match kernel_seconds with
        | Some ks -> ks
        | None -> registry_kernel_seconds snap
      in
      let total_kernel_s =
        List.fold_left (fun a (_, s) -> a +. s) 0. kernel_s
      in
      let projected_fracs = Roofline.profile t.points in
      let kernels =
        List.map
          (fun (pt : Roofline.point) ->
            let m_s =
              Option.value ~default:0.
                (List.assoc_opt pt.Roofline.kernel kernel_s)
            in
            {
              kernel = pt.Roofline.kernel;
              measured_s = m_s;
              measured_frac =
                (if total_kernel_s > 0. then m_s /. total_kernel_s else 0.);
              projected_frac =
                Option.value ~default:0.
                  (List.assoc_opt pt.Roofline.kernel projected_fracs);
            })
          t.points
      in
      let efficiency =
        if measured_gen_s > 0. then t.projected_gen_s /. measured_gen_s
        else 0.
      in
      Mx.set (Mx.gauge "audit.efficiency") efficiency;
      Mx.set (Mx.gauge "audit.projected_gen_s") t.projected_gen_s;
      Mx.set (Mx.gauge "audit.measured_gen_s") measured_gen_s;
      List.iter
        (fun kv ->
          Mx.set (Mx.gauge ("audit.frac." ^ kv.kernel)) kv.measured_frac)
        kernels;
      Some
        {
          machine_name = t.machine.Machine.mname;
          calibrated = t.calibrated;
          projected_gen_s = t.projected_gen_s;
          measured_gen_s;
          efficiency;
          gens;
          kernels;
        }

let table r =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "efficiency audit [%s%s]: generation %.3f ms measured vs %.3f ms \
     projected -> %.0f%% of the roofline model%s\n"
    r.machine_name
    (if r.calibrated then ", on-node calibration" else "")
    (r.measured_gen_s *. 1e3)
    (r.projected_gen_s *. 1e3)
    (r.efficiency *. 100.)
    (if r.gens > 0 then Printf.sprintf " (%d generations)" r.gens else "");
  Printf.bprintf b "  %-14s %12s %8s %8s\n" "kernel" "measured_s" "meas%"
    "model%";
  List.iter
    (fun k ->
      Printf.bprintf b "  %-14s %12.4f %7.1f%% %7.1f%%\n" k.kernel
        k.measured_s
        (k.measured_frac *. 100.)
        (k.projected_frac *. 100.))
    r.kernels;
  let verdict =
    if r.efficiency >= 0.5 then
      "verdict: within 2x of the projection; kernel mix above shows \
       where the rest goes"
    else if r.efficiency > 0. then
      "verdict: more than 2x off the projection; compare meas% vs \
       model% above for the hot spot"
    else "verdict: no measured generation time"
  in
  Buffer.add_string b verdict;
  Buffer.add_char b '\n';
  Buffer.contents b

let json r =
  J.Obj
    [
      ("machine", J.Str r.machine_name);
      ("calibrated", J.Bool r.calibrated);
      ("projected_gen_s", J.Num r.projected_gen_s);
      ("measured_gen_s", J.Num r.measured_gen_s);
      ("efficiency", J.Num r.efficiency);
      ("gens", J.Num (float_of_int r.gens));
      ( "kernels",
        J.Arr
          (List.map
             (fun k ->
               J.Obj
                 [
                   ("kernel", J.Str k.kernel);
                   ("measured_s", J.Num k.measured_s);
                   ("measured_frac", J.Num k.measured_frac);
                   ("projected_frac", J.Num k.projected_frac);
                 ])
             r.kernels) );
    ]
