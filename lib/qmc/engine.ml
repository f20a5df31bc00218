open Oqmc_containers
open Oqmc_particle
open Oqmc_wavefunction
open Oqmc_hamiltonian
open Oqmc_rng

(* The per-thread compute engine: ParticleSets, distance tables, trial
   wavefunction and Hamiltonian wired together for one build variant, plus
   the particle-by-particle drift-and-diffusion choreography of Alg. 1.

   The functor parameters fix the storage precisions independently:
   [R] is the walker/positions (working) precision, [D] the SoA
   distance-table storage precision ([precision_dt]) and [I] the inverse
   / delayed-update panel storage precision ([precision_inv]) — each
   O(N²)-class structure narrows on its own while every kernel still
   accumulates in double.  The Jastrow-coefficient narrowing
   ([precision_jastrow]) is a runtime choice ([create ~jastrow_f32]),
   since the 1-D spline tables are plain arrays rounded at build time.

   The [layout] argument picks between the Ref (store-over-compute,
   packed AoS tables) and Current (SoA, compute-on-the-fly) kernel sets.
   The accept choreography is ordered so components read the pre-move
   rows: wavefunction accepts, then table accepts, then the
   ParticleSet. *)

module Make (R : Precision.REAL) (D : Precision.REAL) (I : Precision.REAL) =
struct
  module Ps = Particle_set.Make (R)
  module W = Wfc.Make (R)
  module Twf = Trial_wavefunction.Make (R)
  module J1 = Jastrow_one.Make (R) (D)
  module J2 = Jastrow_two.Make (R) (D)
  module Det = Slater_det.Make (R) (I)
  module AAref = Dt_aa_ref.Make (R)
  module AAsoa = Dt_aa_soa.Make (R) (D)
  module ABref = Dt_ab_ref.Make (R)
  module ABsoa = Dt_ab_soa.Make (R) (D)

  type tables =
    | Store_t of AAref.t * ABref.t option
    | Otf_t of AAsoa.t * ABsoa.t option

  (* ---- full-pipeline crowd batching hook ----

     A [slot] is everything the batched move stages need from one
     engine: the determinant states, the Jastrow compute-on-the-fly
     states, the SoA tables and the particle set.  The extensible
     constructor is minted once per functor instantiation, so every
     engine built from the same instantiation (one per precision in
     [Build]) recognizes its siblings' hooks; a foreign hook makes
     [make_crowd_stages] decline and the crowd runs each slot's scalar
     sweep. *)
  type slot = {
    sl_dets : Det.state array;
    sl_j2 : J2.opt option;
    sl_j1 : J1.opt option;
    sl_tables : tables;
    sl_ps : Ps.t;
    sl_twf : Twf.t;
    sl_timers : Timers.t;
  }

  type Engine_api.crowd_hook += Crowd_slot of slot

  let make_crowd_stages (hooks : Engine_api.crowd_hook array) :
      Engine_api.crowd_stage option =
    let m = Array.length hooks in
    let opt_slots =
      Array.map
        (function Crowd_slot s -> Some s | _ -> None)
        hooks
    in
    if m = 0 || Array.exists Option.is_none opt_slots then None
    else begin
      let slots = Array.map Option.get opt_slots in
      let s0 = slots.(0) in
      let ndet = Array.length s0.sl_dets in
      let uniform =
        Array.for_all
          (fun s ->
            Array.length s.sl_dets = ndet
            && Option.is_some s.sl_j2 = Option.is_some s0.sl_j2
            && Option.is_some s.sl_j1 = Option.is_some s0.sl_j1
            &&
            match (s.sl_tables, s0.sl_tables) with
            | Otf_t (_, ab), Otf_t (_, ab0) ->
                Option.is_some ab = Option.is_some ab0
            | _ -> false (* Store tables have no batched kernels *))
          slots
      in
      if not uniform then None
      else begin
        let aa_of s =
          match s.sl_tables with
          | Otf_t (aa, _) -> aa
          | Store_t _ -> assert false
        in
        let ab_of s =
          match s.sl_tables with
          | Otf_t (_, ab) -> ab
          | Store_t _ -> assert false
        in
        let aab =
          AAsoa.make_batch (Array.map (fun s -> (aa_of s, s.sl_ps)) slots)
        in
        let abb =
          match ab_of s0 with
          | None -> None
          | Some _ ->
              Some
                (ABsoa.make_batch
                   (Array.map (fun s -> Option.get (ab_of s)) slots))
        in
        let j2s =
          match s0.sl_j2 with
          | None -> None
          | Some _ -> Some (Array.map (fun s -> Option.get s.sl_j2) slots)
        in
        let j1s =
          match s0.sl_j1 with
          | None -> None
          | Some _ -> Some (Array.map (fun s -> Option.get s.sl_j1) slots)
        in
        (* Timer attribution: one window per crowd per batched kernel on
           the slot-0 timers, mirroring the crowd's batched-SPO
           precedent (scalar engines take one window per walker). *)
        let timers0 = s0.sl_timers in
        (* The stage signatures name their SPO-slot argument [slots],
           shadowing the engine-slot array — flatten what the hot loops
           need up front. *)
        let det_states = Array.map (fun s -> s.sl_dets) slots in
        let px = Array.make m 0. and py = Array.make m 0. in
        let pz = Array.make m 0. in
        let cs_prepare ~k ~m =
          Timers.time timers0 "DistTable" (fun () ->
              AAsoa.prepare_batch aab ~k ~m)
        in
        let cs_grad ~k ~m ~(slots : Spo.vgl array) ~gx ~gy ~gz =
          (* Determinant gradients are untimed in the scalar path too
             (Twf times only J1/J2 components). *)
          for s = 0 to m - 1 do
            let sl_dets = det_states.(s) in
            for d = 0 to ndet - 1 do
              Det.grad_into sl_dets.(d) slots.(s) k ~s ~gx ~gy ~gz
            done
          done;
          (match j2s with
          | None -> ()
          | Some js ->
              Timers.time timers0 "J2" (fun () ->
                  J2.grad_batch js ~k ~m ~gx ~gy ~gz));
          match j1s with
          | None -> ()
          | Some js ->
              Timers.time timers0 "J1" (fun () ->
                  J1.grad_batch js ~k ~m ~gx ~gy ~gz)
        in
        let cs_propose ~k ~m ~(pos : Vec3.t array) =
          for s = 0 to m - 1 do
            let p = pos.(s) in
            Ps.propose slots.(s).sl_ps k p;
            px.(s) <- p.Vec3.x;
            py.(s) <- p.Vec3.y;
            pz.(s) <- p.Vec3.z
          done;
          Timers.time timers0 "DistTable" (fun () ->
              AAsoa.move_batch aab ~k ~px ~py ~pz ~m;
              match abb with
              | Some b -> ABsoa.move_batch b ~px ~py ~pz ~m
              | None -> ())
        in
        let cs_ratio_grad ~k ~m ~(slots : Spo.vgl array) ~ratio ~gx ~gy ~gz
            =
          Timers.time timers0 "DetUpdate" (fun () ->
              for s = 0 to m - 1 do
                let sl_dets = det_states.(s) in
                for d = 0 to ndet - 1 do
                  Det.ratio_grad_into sl_dets.(d) slots.(s) k ~s ~ratio ~gx
                    ~gy ~gz
                done
              done);
          (match j2s with
          | None -> ()
          | Some js ->
              Timers.time timers0 "J2" (fun () ->
                  J2.ratio_grad_batch js ~k ~m ~ratio ~gx ~gy ~gz));
          match j1s with
          | None -> ()
          | Some js ->
              Timers.time timers0 "J1" (fun () ->
                  J1.ratio_grad_batch js ~k ~m ~ratio ~gx ~gy ~gz)
        in
        let cs_commit ~k ~m ~(acc : bool array) ~(ratio : float array) =
          (* Scalar accept choreography per slot: components in
             dets → J2 → J1 order, then log Ψ, then tables (AA before
             AB), then the ParticleSet; reject touches only the set. *)
          Timers.time timers0 "DetUpdate" (fun () ->
              for s = 0 to m - 1 do
                if acc.(s) then begin
                  let sl_dets = slots.(s).sl_dets in
                  for d = 0 to ndet - 1 do
                    Det.accept_move sl_dets.(d) k
                  done
                end
              done);
          (match j2s with
          | None -> ()
          | Some js ->
              Timers.time timers0 "J2" (fun () ->
                  J2.accept_batch js ~k ~m ~acc));
          (match j1s with
          | None -> ()
          | Some js ->
              Timers.time timers0 "J1" (fun () ->
                  J1.accept_batch js ~k ~m ~acc));
          for s = 0 to m - 1 do
            if acc.(s) then begin
              let twf = slots.(s).sl_twf in
              Twf.set_log_psi twf
                (Twf.log_psi twf +. log (abs_float ratio.(s)))
            end
          done;
          Timers.time timers0 "DistTable" (fun () ->
              AAsoa.accept_batch aab ~k ~acc ~m;
              match abb with
              | Some b -> ABsoa.accept_batch b ~k ~acc ~m
              | None -> ());
          for s = 0 to m - 1 do
            if acc.(s) then Ps.accept slots.(s).sl_ps
            else Ps.reject slots.(s).sl_ps
          done
        in
        Some
          {
            Engine_api.cs_prepare;
            cs_grad;
            cs_propose;
            cs_ratio_grad;
            cs_commit;
          }
      end
    end

  let make_ions (sys : System.t) =
    match sys.System.ions with
    | [] -> None
    | groups ->
        let species =
          List.map
            (fun g ->
              {
                Particle_set.name = g.System.sname;
                charge = g.System.charge;
                count = List.length g.System.positions;
              })
            groups
        in
        let ions = Ps.create ~lattice:sys.System.lattice species in
        let all = List.concat_map (fun g -> g.System.positions) groups in
        Ps.set_all ions (Array.of_list all);
        Some ions

  let create ?(timers = Timers.null) ?(det_scheme = Det.Sherman_morrison)
      ?(jastrow_f32 = false) ~layout ~seed (sys : System.t) : Engine_api.t =
    let sys = System.validate sys in
    (* precision_jastrow: round every radial-functor control point through
       f32 storage once, up front; evaluation arithmetic stays double. *)
    let sys =
      if not jastrow_f32 then sys
      else
        let narrow = Oqmc_spline.Cubic_spline_1d.narrow in
        {
          sys with
          System.j2 = Option.map (Array.map (Array.map narrow)) sys.System.j2;
          j1 = Option.map (Array.map narrow) sys.System.j1;
        }
    in
    let lattice = sys.System.lattice in
    let n_up = sys.System.n_up and n_down = sys.System.n_down in
    let n = n_up + n_down in
    let especies =
      { Particle_set.name = "u"; charge = -1.; count = n_up }
      :: (if n_down > 0 then
            [ { Particle_set.name = "d"; charge = -1.; count = n_down } ]
          else [])
    in
    let ps = Ps.create ~lattice especies in
    let ions = make_ions sys in
    let tables =
      match (layout, ions) with
      | Variant.Store, io ->
          Store_t
            ( AAref.create ps,
              Option.map (fun i -> ABref.create ~sources:i ps) io )
      | Variant.Otf, io ->
          Otf_t
            ( AAsoa.create ps,
              Option.map (fun i -> ABsoa.create ~sources:i ps) io )
    in
    (* --- wavefunction components --- *)
    let det_states =
      Det.make ~timers ~scheme:det_scheme ~spo:sys.System.spo ~first:0
        ~count:n_up ps
      ::
      (if n_down > 0 then
         [
           Det.make ~timers ~scheme:det_scheme ~spo:sys.System.spo
             ~first:n_up ~count:n_down ps;
         ]
       else [])
    in
    let dets = List.map Det.component det_states in
    let j2_state =
      match (sys.System.j2, tables) with
      | Some functors, Otf_t (aa, _) ->
          Some (J2.make_opt ~table:aa ~functors ps)
      | _ -> None
    in
    let j2 =
      match (sys.System.j2, tables, j2_state) with
      | None, _, _ -> []
      | Some functors, Store_t (aa, _), _ ->
          [ J2.create_ref ~table:aa ~functors ps ]
      | Some _, Otf_t _, Some st -> [ J2.opt_component st ]
      | Some _, Otf_t _, None -> assert false
    in
    let j1_state =
      match (sys.System.j1, tables, ions) with
      | Some functors, Otf_t (_, Some ab), Some io ->
          Some (J1.make_opt ~table:ab ~functors ~ions:io ps)
      | _ -> None
    in
    let j1 =
      match (sys.System.j1, tables, ions, j1_state) with
      | None, _, _, _ -> []
      | Some _, _, None, _ -> invalid_arg "Engine: J1 requires ions"
      | Some functors, Store_t (_, Some ab), Some io, _ ->
          [ J1.create_ref ~table:ab ~functors ~ions:io ps ]
      | Some _, Otf_t _, Some _, Some st -> [ J1.opt_component st ]
      | Some _, _, _, _ -> assert false
    in
    let twf = Twf.create ~timers (dets @ j2 @ j1) in
    let gl = W.make_gl n in
    (* --- table choreography helpers --- *)
    let tables_evaluate () =
      Timers.time timers "DistTable" (fun () ->
          match tables with
          | Store_t (aa, ab) ->
              AAref.evaluate aa ps;
              Option.iter (fun t -> ABref.evaluate t ps) ab
          | Otf_t (aa, ab) ->
              AAsoa.evaluate aa ps;
              Option.iter (fun t -> ABsoa.evaluate t ps) ab)
    in
    let tables_prepare k =
      match tables with
      | Store_t _ -> ()
      | Otf_t (aa, _) ->
          Timers.time timers "DistTable" (fun () -> AAsoa.prepare aa ps k)
    in
    let tables_move k pos =
      Timers.time timers "DistTable" (fun () ->
          match tables with
          | Store_t (aa, ab) ->
              AAref.move aa ps k pos;
              Option.iter (fun t -> ABref.move t pos) ab
          | Otf_t (aa, ab) ->
              AAsoa.move aa ps k pos;
              Option.iter (fun t -> ABsoa.move t pos) ab)
    in
    let tables_accept k =
      Timers.time timers "DistTable" (fun () ->
          match tables with
          | Store_t (aa, ab) ->
              AAref.update aa k;
              Option.iter (fun t -> ABref.update t k) ab
          | Otf_t (aa, ab) ->
              AAsoa.accept aa k;
              Option.iter (fun t -> ABsoa.accept t k) ab)
    in
    (* --- Hamiltonian --- *)
    let dist_ee i j =
      match tables with
      | Store_t (aa, _) -> AAref.dist aa i j
      | Otf_t (aa, _) -> AAsoa.dist aa i j
    in
    let dist_ei k i =
      match tables with
      | Store_t (_, Some ab) -> ABref.dist ab k i
      | Otf_t (_, Some ab) -> ABsoa.dist ab k i
      | _ -> invalid_arg "Engine: no electron-ion table"
    in
    let nlpp_ratio k pos =
      Ps.propose ps k pos;
      tables_move k pos;
      let r = Twf.ratio twf ps k in
      Twf.reject twf ps k;
      Ps.reject ps;
      r
    in
    let timed_term (term : Hamiltonian.term) =
      {
        term with
        Hamiltonian.evaluate =
          (fun () -> Timers.time timers "Other" term.Hamiltonian.evaluate);
      }
    in
    let ham_terms =
      let spec = sys.System.ham in
      let coulomb_terms =
        if not spec.System.coulomb then []
        else if spec.System.ewald && Lattice.is_periodic lattice then begin
          (* Full periodic electrostatics over the combined charge set:
             electrons first, then the fixed ions. *)
          let n_ion = match ions with None -> 0 | Some io -> Ps.n io in
          let charges =
            Array.init (n + n_ion) (fun i ->
                if i < n then -1.
                else Ps.charge (Option.get ions) (i - n))
          in
          let position i =
            if i < n then Ps.get ps i else Ps.get (Option.get ions) (i - n)
          in
          [ timed_term (Ewald.term ~lattice ~charges ~position ()) ]
        end
        else begin
          let ee = timed_term (Coulomb.ee ~n ~dist:dist_ee) in
          match ions with
          | None -> [ ee ]
          | Some io ->
              let ni = Ps.n io in
              let charge i = Ps.charge io i in
              let ei =
                timed_term (Coulomb.ei ~n ~n_ion:ni ~charge ~dist:dist_ei)
              in
              let ii =
                Coulomb.ii ~n_ion:ni ~charge ~dist:(fun i j ->
                    Lattice.min_image_dist lattice (Ps.get io i) (Ps.get io j))
              in
              [ ee; ei; ii ]
        end
      in
      let harmonic_terms =
        match spec.System.harmonic with
        | None -> []
        | Some omega ->
            [
              timed_term
                (External_potential.harmonic ~omega ~n ~position:(Ps.get ps));
            ]
      in
      let nlpp_terms =
        match (spec.System.nlpp, ions) with
        | None, _ -> []
        | Some _, None -> invalid_arg "Engine: NLPP requires ions"
        | Some species, Some io ->
            [
              Nlpp.create ~quadrature:Quadrature.icosahedron ~species
                ~n_electrons:n
                ~ion_species_of:(fun i -> Ps.species_index io i)
                ~n_ions:(Ps.n io)
                ~ion_position:(Ps.get io)
                ~elec_position:(Ps.get ps) ~dist:dist_ei ~ratio:nlpp_ratio;
            ]
      in
      coulomb_terms @ harmonic_terms @ nlpp_terms
    in
    let ham = Hamiltonian.create ham_terms in
    (* --- engine operations --- *)
    let refresh () =
      tables_evaluate ();
      Twf.evaluate_log twf ps
    in
    let measure () =
      (* The compute-on-the-fly policy leaves AA rows of already-moved
         electrons stale within a sweep; measurements rebuild the table
         (the Ref policy maintains it incrementally). *)
      (match tables with
      | Otf_t (aa, _) ->
          Timers.time timers "DistTable" (fun () -> AAsoa.evaluate aa ps)
      | Store_t _ -> ());
      Twf.evaluate_gl twf ps gl;
      let kinetic = Twf.kinetic_energy gl in
      Hamiltonian.local_energy ham ~kinetic
    in
    let load_walker w =
      Ps.load_walker ps w;
      ignore (refresh ())
    in
    let restore_walker w =
      Ps.load_walker ps w;
      tables_evaluate ();
      Wbuffer.rewind w.Walker.buffer;
      Twf.copy_from_buffer twf ps w.Walker.buffer;
      Twf.set_log_psi twf w.Walker.log_psi
    in
    let save_walker w =
      Ps.store_walker ps w;
      w.Walker.log_psi <- Twf.log_psi twf;
      Wbuffer.rewind w.Walker.buffer;
      Twf.update_buffer twf ps w.Walker.buffer
    in
    let register_walker w =
      Wbuffer.clear w.Walker.buffer;
      Twf.register twf w.Walker.buffer;
      Ps.store_walker ps w;
      w.Walker.log_psi <- Twf.log_psi twf;
      Wbuffer.rewind w.Walker.buffer;
      Twf.update_buffer twf ps w.Walker.buffer
    in
    let randomize rng =
      Ps.randomize ps (fun () -> Xoshiro.uniform rng);
      ignore (refresh ())
    in
    let memory_bytes () =
      let table_bytes =
        match tables with
        | Store_t (aa, ab) ->
            AAref.bytes aa
            + Option.fold ~none:0 ~some:(fun t -> ABref.bytes t) ab
        | Otf_t (aa, ab) ->
            AAsoa.bytes aa
            + Option.fold ~none:0 ~some:(fun t -> ABsoa.bytes t) ab
      in
      Ps.bytes ps
      + Option.fold ~none:0 ~some:(fun i -> Ps.bytes i) ions
      + table_bytes + Twf.bytes twf
    in
    (* The stages of one PbP move; the scalar sweep is their
       composition. *)
    let pbp =
      {
        Engine_api.prepare = tables_prepare;
        current_pos = (fun k -> Ps.get ps k);
        grad = (fun k -> Twf.grad twf ps k);
        propose =
          (fun k pos ->
            Ps.propose ps k pos;
            tables_move k pos);
        ratio_grad = (fun k -> Twf.ratio_grad twf ps k);
        accept =
          (fun k ~ratio ->
            Twf.accept twf ps k ~ratio;
            tables_accept k;
            Ps.accept ps);
        reject =
          (fun k ->
            Twf.reject twf ps k;
            Ps.reject ps);
      }
    in
    (* Full-pipeline crowd hook: only the SoA/compute-on-the-fly layout
       has batched table kernels; Store engines decline and crowds run
       each slot's scalar sweep. *)
    let crowd_hook =
      match tables with
      | Store_t _ -> Engine_api.No_crowd_hook
      | Otf_t _ ->
          Crowd_slot
            {
              sl_dets = Array.of_list det_states;
              sl_j2 = j2_state;
              sl_j1 = j1_state;
              sl_tables = tables;
              sl_ps = ps;
              sl_twf = twf;
              sl_timers = timers;
            }
    in
    (* Seed the electron configuration deterministically. *)
    let rng0 = Xoshiro.create seed in
    Ps.randomize ps (fun () -> Xoshiro.uniform rng0);
    ignore (refresh ());
    {
      Engine_api.label =
        Printf.sprintf "%s/%s/%s" sys.System.name R.name
          (match layout with Variant.Store -> "store" | Variant.Otf -> "otf");
      n_electrons = n;
      timers;
      refresh;
      sweep = Engine_api.sweep_of_pbp pbp ~n;
      measure;
      load_walker;
      restore_walker;
      save_walker;
      register_walker;
      log_psi = (fun () -> Twf.log_psi twf);
      randomize;
      memory_bytes;
      pbp;
      make_vgl_batch = sys.System.spo.Spo.make_vgl_batch;
      crowd_hook;
      make_crowd_stages;
    }
end
