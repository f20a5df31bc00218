open Oqmc_particle
open Oqmc_core
open Oqmc_workloads
open Oqmc_rng
open Oqmc_dist

(* Supervised multi-rank execution: the wire protocol, the walker codec,
   sharded checkpoints with a manifest, real walker exchange, and the
   headline robustness guarantees — fault-free forked runs bit-identical
   to the in-process reference, and crash/stall/garbage recovery with
   finite estimators throughout. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf tol = Alcotest.(check (float tol))

let tmpdir () =
  let f = Filename.temp_file "oqmc_dist" "" in
  Sys.remove f;
  Unix.mkdir f 0o700;
  f

(* A small interacting system whose engine exercises real buffers. *)
let sys = Validation.electron_gas ~n_up:4 ~n_down:4 ~box:5.0 ()
let factory = Build.factory ~variant:Variant.Current_f64 ~seed:500 sys

let mk_walkers ?(seed = 41) n_walkers =
  let e = Build.engine ~variant:Variant.Current_f64 ~seed:40 sys in
  let rng = Xoshiro.create seed in
  List.init n_walkers (fun i ->
      let w = Walker.create 8 in
      e.Engine_api.randomize rng;
      e.Engine_api.register_walker w;
      w.Walker.weight <- 0.5 +. Xoshiro.uniform rng;
      w.Walker.age <- i;
      w.Walker.e_local <- e.Engine_api.measure ();
      w)

(* ---------- walker wire codec ---------- *)

let encode_one w =
  let buf = Buffer.create 256 in
  Walker.encode buf w;
  Buffer.contents buf

let test_codec_bit_exact () =
  List.iter
    (fun w ->
      let s = encode_one w in
      let pos = ref 0 in
      let w' = Walker.decode s pos in
      check_int "consumed everything" (String.length s) !pos;
      check_bool "weight bits" true
        (Int64.bits_of_float w.Walker.weight
        = Int64.bits_of_float w'.Walker.weight);
      check_bool "log_psi bits" true
        (Int64.bits_of_float w.Walker.log_psi
        = Int64.bits_of_float w'.Walker.log_psi);
      check_bool "e_local bits" true
        (Int64.bits_of_float w.Walker.e_local
        = Int64.bits_of_float w'.Walker.e_local);
      check_int "multiplicity" w.Walker.multiplicity w'.Walker.multiplicity;
      check_int "age" w.Walker.age w'.Walker.age;
      check_bool "fresh id" true (w.Walker.id <> w'.Walker.id);
      (* The full state (positions + buffer) roundtrips bit-exactly iff
         re-encoding yields the same bytes. *)
      check_bool "re-encode identical" true (encode_one w' = s))
    (mk_walkers 4)

let test_codec_rejects_malformed () =
  let w = List.hd (mk_walkers 1) in
  let s = encode_one w in
  check_bool "truncated input rejected" true
    (match Walker.decode (String.sub s 0 (String.length s / 2)) (ref 0) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------- wire protocol framing ---------- *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let roundtrip msg =
  with_pipe (fun r w ->
      Wire.send w msg;
      Wire.recv ~timeout:5. r)

let test_wire_roundtrip () =
  let walkers = mk_walkers 3 in
  let msgs =
    [
      Wire.Hello { rank = 3; pid = 4242 };
      Wire.Init { count = 17 };
      Wire.Heartbeat { gen = 9 };
      Wire.Begin_gen { gen = 12; e_trial = -1.234567890123 };
      Wire.Reduce
        {
          gen = 12;
          wsum = 3.5;
          esum = -4.25;
          acc = 100;
          prop = 160;
          n = 7;
          telemetry = [];
        };
      Wire.Reduce
        {
          gen = 13;
          wsum = 1.;
          esum = 0.;
          acc = 1;
          prop = 2;
          n = 1;
          telemetry =
            [ ('c', "dmc.accepted", 42.); ('g', "dmc.e_trial", -0.5) ];
        };
      Wire.Branch { gen = 12 };
      Wire.Count { gen = 12; n = 5 };
      Wire.Give { gen = 12; count = 2 };
      Wire.Checkpoint_cmd { gen = 24; e_trial = 0.5 };
      Wire.Ack { gen = 24; ok = true };
      Wire.Ack { gen = 24; ok = false };
      Wire.Finish;
      Wire.Join { gen = 30; e_trial = -0.987654321012345 };
      Wire.Drain { gen = 31 };
      Wire.Leave { gen = 31; count = 9 };
    ]
  in
  List.iter
    (fun m -> check_bool "scalar roundtrip" true (roundtrip m = m))
    msgs;
  (match roundtrip (Wire.Walkers { gen = 3; walkers }) with
  | Wire.Walkers { gen = 3; walkers = ws } ->
      check_int "walker batch size" 3 (List.length ws);
      List.iter2
        (fun a b -> check_bool "batch bit-exact" true (encode_one a = encode_one b))
        walkers ws
  | _ -> Alcotest.fail "wrong message");
  match
    roundtrip (Wire.Final { acc = 7; prop = 11; walkers; trace = "blob" })
  with
  | Wire.Final { acc = 7; prop = 11; walkers = ws; trace = "blob" } ->
      check_int "final batch size" 3 (List.length ws)
  | _ -> Alcotest.fail "wrong message"

let test_wire_crc_garbage () =
  with_pipe (fun r w ->
      Wire.send_corrupt w;
      match Wire.recv ~timeout:5. r with
      | _ -> Alcotest.fail "corrupt frame was accepted"
      | exception Wire.Garbage _ -> ())

let test_wire_unknown_tag_and_trailing () =
  (* Hand-craft a frame with a valid CRC but an unknown tag, and one
     with trailing bytes after a valid payload. *)
  let frame body =
    let buf = Buffer.create 32 in
    Buffer.add_int32_be buf (Int32.of_int (String.length body));
    Buffer.add_string buf body;
    Buffer.add_int32_be buf (Int32.of_int (Checkpoint.crc32 body));
    Buffer.to_bytes buf
  in
  let send_raw body =
    with_pipe (fun r w ->
        let fb = frame body in
        ignore (Unix.write w fb 0 (Bytes.length fb));
        Wire.recv ~timeout:5. r)
  in
  (match send_raw "\xFF" with
  | _ -> Alcotest.fail "unknown tag accepted"
  | exception Wire.Garbage _ -> ());
  (* Heartbeat (tag 2) + gen + one stray byte. *)
  match send_raw "\x02\x00\x00\x00\x07Z" with
  | _ -> Alcotest.fail "trailing bytes accepted"
  | exception Wire.Garbage _ -> ()

let test_wire_timeout_and_closed () =
  with_pipe (fun r _w ->
      let t0 = Unix.gettimeofday () in
      (match Wire.recv ~timeout:0.1 r with
      | _ -> Alcotest.fail "read from silent pipe succeeded"
      | exception Wire.Timeout -> ());
      check_bool "deadline honored" true (Unix.gettimeofday () -. t0 < 2.));
  let r, w = Unix.pipe () in
  Unix.close w;
  Fun.protect
    ~finally:(fun () -> try Unix.close r with Unix.Unix_error _ -> ())
    (fun () ->
      match Wire.recv ~timeout:1. r with
      | _ -> Alcotest.fail "read from closed pipe succeeded"
      | exception Wire.Closed -> ())

(* The serve layer speaks Wire over SOCKETS, where a frame larger than
   the kernel buffer makes write(2) return short counts and a peer that
   hung up raises SIGPIPE at the writer.  A forked child ships a walker
   batch far bigger than the socket buffer while the parent reads
   concurrently: only a write_all that loops on partial writes (and
   retries EINTR) can get the frame across intact. *)
let test_wire_socketpair_partial_writes () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let walkers = mk_walkers 600 in
  match Unix.fork () with
  | 0 ->
      Unix.close a;
      (* Child: one jumbo frame out, then echo back what the parent
         says so the duplex path is exercised too. *)
      Wire.send b (Wire.Walkers { gen = 77; walkers });
      let code =
        match Wire.recv ~timeout:10. b with
        | Wire.Ack { gen = 77; ok = true } -> 0
        | _ -> 1
      in
      Stdlib.exit code
  | pid ->
      Unix.close b;
      Fun.protect
        ~finally:(fun () -> try Unix.close a with Unix.Unix_error _ -> ())
        (fun () ->
          (match Wire.recv ~timeout:10. a with
          | Wire.Walkers { gen = 77; walkers = ws } ->
              check_int "jumbo batch size" 600 (List.length ws);
              List.iter2
                (fun x y ->
                  check_bool "jumbo batch bit-exact" true
                    (encode_one x = encode_one y))
                walkers ws
          | _ -> Alcotest.fail "wrong message");
          Wire.send a (Wire.Ack { gen = 77; ok = true });
          let _, status = Unix.waitpid [] pid in
          check_bool "child clean" true (status = Unix.WEXITED 0))

(* Writing into a socket whose peer vanished must surface as
   Wire.Closed — not kill the process with SIGPIPE, the classic daemon
   assassin.  The first frame may land in the kernel buffer; EPIPE is
   guaranteed by the second at the latest. *)
let test_wire_socketpair_closed_peer () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  Fun.protect
    ~finally:(fun () -> try Unix.close a with Unix.Unix_error _ -> ())
    (fun () ->
      let saw_closed = ref false in
      (try
         for _ = 1 to 4 do
           Wire.send a (Wire.Heartbeat { gen = 1 })
         done
       with Wire.Closed -> saw_closed := true);
      check_bool "EPIPE surfaced as Closed" true !saw_closed)

(* Raw string frames (the serve protocol's carrier): length + payload +
   CRC, same corruption guarantees as the typed frames. *)
let test_wire_raw_frames () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      (* Small enough to fit the socket buffer, so a sequential
         send-then-recv cannot deadlock; the jumbo partial-write path
         is covered by the forked test above. *)
      let payloads = [ ""; "x"; String.make 60000 'q'; "{\"k\":1}" ] in
      List.iter
        (fun s ->
          Wire.send_str a s;
          let got = Wire.recv_str ~timeout:10. b in
          check_bool "raw frame intact" true (got = s))
        payloads;
      (* A corrupted raw frame must be Garbage, never data. *)
      let buf = Buffer.create 32 in
      Buffer.add_int32_be buf 5l;
      Buffer.add_string buf "hello";
      Buffer.add_int32_be buf 0xdeadbeefl;
      let frame = Buffer.to_bytes buf in
      let n = Unix.write a frame 0 (Bytes.length frame) in
      check_int "corrupt frame written" (Bytes.length frame) n;
      match Wire.recv_str ~timeout:5. b with
      | _ -> Alcotest.fail "corrupt raw frame was accepted"
      | exception Wire.Garbage _ -> ())

(* ---------- sharded checkpoints + manifest ---------- *)

let test_shard_roundtrip () =
  let dir = tmpdir () in
  let path = Filename.concat dir "run.chk" in
  let walkers = mk_walkers 3 in
  Checkpoint.save_shard ~path ~rank:2 ~gen:40 ~e_trial:(-0.75) walkers;
  let e_trial, restored = Checkpoint.load_shard ~path ~rank:2 ~gen:40 in
  checkf 0. "e_trial" (-0.75) e_trial;
  check_int "count" 3 (List.length restored);
  let gen, (e_trial', _) = Checkpoint.load_latest_shard ~path ~rank:2 in
  check_int "latest gen" 40 gen;
  checkf 0. "latest e_trial" (-0.75) e_trial'

let test_manifest_roundtrip_and_corruption () =
  let dir = tmpdir () in
  let path = Filename.concat dir "run.chk" in
  Checkpoint.save_manifest ~path ~gen:30 ~ranks:[ 0; 1; 3 ] ();
  let gen, ranks = Checkpoint.load_manifest ~path in
  check_int "gen" 30 gen;
  Alcotest.(check (list int)) "ranks" [ 0; 1; 3 ] ranks;
  Fault.garble_file ~path:(Checkpoint.manifest_path ~path) ~seed:9;
  check_bool "corrupt manifest rejected" true
    (match Checkpoint.load_manifest ~path with
    | _ -> false
    | exception Checkpoint.Corrupt _ -> true)

let test_latest_complete_falls_back () =
  let dir = tmpdir () in
  let path = Filename.concat dir "run.chk" in
  let walkers = mk_walkers 2 in
  List.iter
    (fun gen ->
      Checkpoint.save_shard ~path ~rank:0 ~gen ~e_trial:(-1.) walkers;
      Checkpoint.save_shard ~path ~rank:1 ~gen ~e_trial:(-1.) walkers)
    [ 10; 20 ];
  check_bool "newest complete" true
    (Checkpoint.latest_complete ~path ~ranks:2 = Some 20);
  (* Corrupt rank 1's newest shard: the complete set falls back to 10. *)
  Fault.garble_file
    ~path:(Checkpoint.shard_path ~path ~rank:1 ^ Printf.sprintf ".gen-%d" 20)
    ~seed:7;
  check_bool "falls back past corrupt shard" true
    (Checkpoint.latest_complete ~path ~ranks:2 = Some 10);
  check_bool "no complete set for 3 ranks" true
    (Checkpoint.latest_complete ~path ~ranks:3 = None)

(* The manifest is advisory: the restart point is decided by the shards
   that actually load, so a manifest pointing past the complete set (a
   crash between shard acks and the manifest write, or vice versa) must
   fall back, never crash. *)
let test_manifest_partial_shard_set () =
  let dir = tmpdir () in
  let path = Filename.concat dir "run.chk" in
  let walkers = mk_walkers 2 in
  Checkpoint.save_shard ~path ~rank:0 ~gen:10 ~e_trial:(-1.) walkers;
  Checkpoint.save_shard ~path ~rank:1 ~gen:10 ~e_trial:(-1.) walkers;
  Checkpoint.save_shard ~path ~rank:0 ~gen:20 ~e_trial:(-1.) walkers;
  Checkpoint.save_manifest ~path ~gen:20 ~ranks:[ 0; 1 ] ();
  let mgen, _ = Checkpoint.load_manifest ~path in
  check_int "manifest optimistically claims 20" 20 mgen;
  check_bool "restart falls back to the complete set" true
    (Checkpoint.latest_complete ~path ~ranks:2 = Some 10)

let test_manifest_missing_shards_never_crash () =
  let dir = tmpdir () in
  let path = Filename.concat dir "run.chk" in
  Checkpoint.save_manifest ~path ~gen:50 ~ranks:[ 0; 1; 2 ] ();
  check_bool "no shards on disk: no restart point" true
    (Checkpoint.latest_complete ~path ~ranks:3 = None);
  check_bool "missing shard raises Corrupt, not a crash" true
    (match Checkpoint.load_latest_shard ~path ~rank:1 with
    | _ -> false
    | exception Checkpoint.Corrupt _ -> true)

let test_keep1_rotation_race () =
  let dir = tmpdir () in
  let path = Filename.concat dir "run.chk" in
  let walkers = mk_walkers 2 in
  List.iter
    (fun gen ->
      Checkpoint.save_shard ~keep:1 ~path ~rank:0 ~gen ~e_trial:(-2.) walkers)
    [ 1; 2; 3; 4; 5 ];
  let gen, (e, ws) = Checkpoint.load_latest_shard ~path ~rank:0 in
  check_int "keep=1 leaves only the newest" 5 gen;
  checkf 0. "e_trial survives rotation" (-2.) e;
  check_int "count survives rotation" 2 (List.length ws);
  (* With keep=1 there is no older generation to fall back to, so a torn
     newest file must surface as a clean Corrupt. *)
  Fault.garble_file
    ~path:(Checkpoint.shard_path ~path ~rank:0 ^ ".gen-5")
    ~seed:3;
  check_bool "corrupt newest + keep=1: clean Corrupt" true
    (match Checkpoint.load_latest_shard ~path ~rank:0 with
    | _ -> false
    | exception Checkpoint.Corrupt _ -> true);
  check_bool "latest_complete degrades to None" true
    (Checkpoint.latest_complete ~path ~ranks:1 = None)

(* Async saves spawn a background domain, and a process that has ever
   created a domain can no longer Unix.fork — exactly why only worker
   ranks use them.  Mirror that here: exercise the writer in a forked
   child so this test process stays fork-clean for the supervisor
   suite, then validate the artifacts it left on disk. *)
let test_async_checkpoint_roundtrip () =
  let dir = tmpdir () in
  let path = Filename.concat dir "run.chk" in
  let walkers = mk_walkers 3 in
  (match Unix.fork () with
  | 0 ->
      let status =
        try
          let t = Checkpoint.Async.create () in
          let ok1 =
            Checkpoint.Async.save_generation t ~path ~gen:1 ~e_trial:(-0.5)
              walkers
          in
          let ok2 =
            Checkpoint.Async.save_generation t ~path ~gen:2 ~e_trial:(-0.25)
              walkers
          in
          let drained = Checkpoint.Async.drain t in
          if ok1 && ok2 && drained && Checkpoint.Async.failures t = 0 then 0
          else 1
        with _ -> 2
      in
      Stdlib.exit status
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED 1 -> Alcotest.fail "an async ack or drain reported failure"
      | _, _ -> Alcotest.fail "async writer child crashed"));
  let gen, (e, ws) = Checkpoint.load_latest ~path in
  check_int "newest generation on disk" 2 gen;
  checkf 0. "e_trial" (-0.25) e;
  check_int "ensemble size" 3 (List.length ws)

(* ---------- population: branching + exchange (satellite coverage) ---- *)

let unit_walkers n = List.init n (fun _ -> Walker.create 2)

let test_branch_extinction_resets_state () =
  let w = Walker.create 2 in
  w.Walker.weight <- 1e-12;
  w.Walker.multiplicity <- 3;
  w.Walker.age <- 57;
  let pop = Population.create ~target:4 ~e_trial:0. [ w ] in
  let rng = Xoshiro.create 123 in
  Population.branch pop rng;
  check_int "never extinct" 1 (Population.size pop);
  let s = List.hd (Population.walkers pop) in
  checkf 0. "unit weight" 1. s.Walker.weight;
  check_int "unit multiplicity" 1 s.Walker.multiplicity;
  check_int "age reset" 0 s.Walker.age;
  check_bool "fresh clone, not the dead walker" true (s.Walker.id <> w.Walker.id)

let test_branch_copy_cap () =
  let w = Walker.create 2 in
  w.Walker.weight <- 100.;
  let pop = Population.create ~target:4 ~e_trial:0. [ w ] in
  Population.branch pop (Xoshiro.create 5);
  check_int "copies capped at 4" 4 (Population.size pop);
  List.iter
    (fun s -> checkf 0. "copies are unit weight" 1. s.Walker.weight)
    (Population.walkers pop)

let test_dmc_weight_clamp () =
  let w = Walker.create 2 in
  w.Walker.weight <- 1.;
  (* A pathological configuration: the raw branching exponent is ±1000,
     but the factor must stay within exp(±2). *)
  Population.dmc_weight ~tau:1. ~e_trial:1000. ~e_old:0. ~e_new:0. w;
  checkf 1e-12 "clamped up" (exp 2.) w.Walker.weight;
  w.Walker.weight <- 1.;
  Population.dmc_weight ~tau:1. ~e_trial:(-1000.) ~e_old:0. ~e_new:0. w;
  checkf 1e-12 "clamped down" (exp (-2.)) w.Walker.weight

let test_load_balance_uneven () =
  let pop = Population.create ~target:8 ~e_trial:0. (unit_walkers 10) in
  let r1 = Population.load_balance pop ~ranks:1 in
  check_int "1 rank moves nothing" 0 r1.Population.messages;
  checkf 0. "1 rank is balanced" 0. r1.Population.imbalance;
  let r3 = Population.load_balance pop ~ranks:3 in
  (* Round-robin over 3 ranks puts 4,3,3 — ideal is 4,3,3: no moves. *)
  check_int "already ideal" 0 r3.Population.messages;
  let pop7 = Population.create ~target:8 ~e_trial:0. (unit_walkers 7) in
  let r4 = Population.load_balance pop7 ~ranks:4 in
  check_bool "uneven split reports imbalance" true
    (r4.Population.imbalance >= 0.);
  check_bool "ranks < 1 rejected" true
    (match Population.load_balance pop ~ranks:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_give_absorb_order () =
  let ws = unit_walkers 5 in
  let pop = Population.create ~target:4 ~e_trial:0. ws in
  let given = Population.give pop 2 in
  check_int "gave 2" 2 (List.length given);
  check_int "kept 3" 3 (Population.size pop);
  (* give takes the LAST walkers, preserving order on both sides. *)
  Alcotest.(check (list int))
    "given are the tail, in order"
    (List.map (fun w -> w.Walker.id) (List.filteri (fun i _ -> i >= 3) ws))
    (List.map (fun w -> w.Walker.id) given);
  Alcotest.(check (list int))
    "kept are the head, in order"
    (List.map (fun w -> w.Walker.id) (List.filteri (fun i _ -> i < 3) ws))
    (List.map (fun w -> w.Walker.id) (Population.walkers pop));
  check_int "give clamps to size" 3 (List.length (Population.give pop 99));
  check_int "empty after over-give" 0 (Population.size pop);
  Population.absorb pop given;
  check_int "absorb appends" 2 (Population.size pop);
  check_bool "negative give rejected" true
    (match Population.give pop (-1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_plan_properties () =
  check_int "balanced needs no moves" 0
    (List.length (Population.plan [| 3; 3; 3 |]));
  let check_plan counts =
    let counts = Array.of_list counts in
    let k = Array.length counts in
    let total = Array.fold_left ( + ) 0 counts in
    let after = Array.copy counts in
    List.iter
      (fun { Population.src; dst; count } ->
        check_bool "positive move" true (count > 0);
        check_bool "src has the walkers" true (after.(src) >= count);
        after.(src) <- after.(src) - count;
        after.(dst) <- after.(dst) + count)
      (Population.plan counts);
    check_int "walkers conserved" total (Array.fold_left ( + ) 0 after);
    let per = total / k and extra = total mod k in
    Array.iteri
      (fun i c -> check_int "ideal split reached" (per + if i < extra then 1 else 0) c)
      after
  in
  List.iter check_plan
    [ [ 7; 1; 4 ]; [ 0; 0; 9 ]; [ 1; 2; 3; 4; 5 ]; [ 10 ]; [ 2; 2; 3 ] ]

let test_exchange_moves_walkers () =
  let shards =
    [| unit_walkers 8; unit_walkers 1; unit_walkers 3 |]
    |> Array.map (fun ws -> Population.create ~target:4 ~e_trial:0. ws)
  in
  let all_ids =
    Array.to_list shards
    |> List.concat_map (fun s ->
           List.map (fun w -> w.Walker.id) (Population.walkers s))
    |> List.sort compare
  in
  let report = Population.exchange shards in
  check_int "sizes leveled: shard 0" 4 (Population.size shards.(0));
  check_int "sizes leveled: shard 1" 4 (Population.size shards.(1));
  check_int "sizes leveled: shard 2" 4 (Population.size shards.(2));
  check_int "messages = walkers moved" 4 report.Population.messages;
  check_bool "bytes accounted" true (report.Population.bytes > 0);
  let all_ids' =
    Array.to_list shards
    |> List.concat_map (fun s ->
           List.map (fun w -> w.Walker.id) (Population.walkers s))
    |> List.sort compare
  in
  Alcotest.(check (list int)) "same physical walkers" all_ids all_ids'

(* ---------- supervised execution ---------- *)

let base_params =
  {
    Supervisor.default_params with
    ranks = 3;
    target_walkers = 9;
    warmup = 3;
    generations = 10;
    tau = 0.02;
    seed = 77;
    n_domains = 1;
    heartbeat_s = 30.;
    respawn_backoff = 0.01;
  }

let finite x = Float.is_finite x

let assert_healthy name (res : Supervisor.result) =
  check_bool (name ^ ": finite energy") true (finite res.Supervisor.energy);
  check_bool (name ^ ": finite error") true
    (finite res.Supervisor.energy_error);
  check_bool (name ^ ": finite e_trial") true
    (finite res.Supervisor.final_e_trial);
  Array.iter
    (fun e -> check_bool (name ^ ": finite series") true (finite e))
    res.Supervisor.energy_series;
  let target = float_of_int base_params.Supervisor.target_walkers in
  check_bool (name ^ ": population within control bounds") true
    (res.Supervisor.mean_population > target /. 3.
    && res.Supervisor.mean_population < target *. 3.);
  check_bool (name ^ ": final ensemble alive") true
    (List.length res.Supervisor.final_walkers > 0)

let same_series a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

let test_run_local_deterministic () =
  let r1 = Supervisor.run_local ~factory base_params in
  let r2 = Supervisor.run_local ~factory base_params in
  check_bool "energy series bit-identical" true
    (same_series r1.Supervisor.energy_series r2.Supervisor.energy_series);
  check_bool "e_trial bit-identical" true
    (Int64.bits_of_float r1.Supervisor.final_e_trial
    = Int64.bits_of_float r2.Supervisor.final_e_trial);
  check_int "comm identical" r1.Supervisor.comm_messages
    r2.Supervisor.comm_messages;
  assert_healthy "local" r1

let test_forked_matches_local_bit_for_bit () =
  let local = Supervisor.run_local ~factory base_params in
  let forked = Supervisor.run ~factory base_params in
  check_bool "energy series bit-identical" true
    (same_series local.Supervisor.energy_series
       forked.Supervisor.energy_series);
  check_bool "final e_trial bit-identical" true
    (Int64.bits_of_float local.Supervisor.final_e_trial
    = Int64.bits_of_float forked.Supervisor.final_e_trial);
  Alcotest.(check (array int))
    "population series identical" local.Supervisor.population_series
    forked.Supervisor.population_series;
  check_int "exchange messages identical" local.Supervisor.comm_messages
    forked.Supervisor.comm_messages;
  check_int "exchange bytes identical" local.Supervisor.comm_bytes
    forked.Supervisor.comm_bytes;
  checkf 0. "acceptance identical" local.Supervisor.acceptance
    forked.Supervisor.acceptance;
  check_int "final ensemble same size"
    (List.length local.Supervisor.final_walkers)
    (List.length forked.Supervisor.final_walkers);
  check_int "no faults: clean counters" 0
    (forked.Supervisor.respawns + forked.Supervisor.crashes
   + forked.Supervisor.heartbeat_timeouts + forked.Supervisor.garbage_frames);
  check_int "no degraded generations" 0 forked.Supervisor.degraded_generations

(* A job drained at generation k into a snapshot and then resumed with
   the same parameters continues the uninterrupted trajectory exactly. *)
let test_snapshot_resume_bit_identical () =
  let dir = tmpdir () in
  let snapshot = Filename.concat dir "job.snap" in
  let reference = Supervisor.run_local ~factory base_params in
  let k = 6 in
  let polls = ref 0 in
  let first =
    Supervisor.run_job ~factory ~local:true
      ~stop:(fun () ->
        incr polls;
        !polls >= k)
      ~snapshot base_params
  in
  check_bool "first call drained" true first.Supervisor.drained;
  check_int "drained at generation k" k first.Supervisor.gens_done;
  let resumed = Supervisor.run_job ~factory ~local:true ~snapshot base_params in
  check_int "resumed from generation k" k resumed.Supervisor.resumed_from;
  check_bool "resumed job ran to completion" false resumed.Supervisor.drained;
  let r = resumed.Supervisor.job_result in
  check_bool "energy series bit-identical" true
    (same_series reference.Supervisor.energy_series r.Supervisor.energy_series);
  Alcotest.(check (array int))
    "population series identical" reference.Supervisor.population_series
    r.Supervisor.population_series;
  check_bool "final e_trial bit-identical" true
    (Int64.bits_of_float reference.Supervisor.final_e_trial
    = Int64.bits_of_float r.Supervisor.final_e_trial)

(* Both executors emit per-generation telemetry records with the same
   documented key set. *)
let test_telemetry_same_keys_both_executors () =
  let module Jsonx = Oqmc_obs.Jsonx in
  let dir = tmpdir () in
  let record_keys run name =
    let path = Filename.concat dir name in
    ignore (run ~factory { base_params with Supervisor.telemetry = Some path });
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> (
          match Jsonx.parse_string_exn line with
          | Jsonx.Obj kvs when not (List.mem_assoc "event" kvs) ->
              go (List.sort compare (List.map fst kvs) :: acc)
          | _ -> go acc)
      | exception End_of_file ->
          close_in ic;
          List.sort_uniq compare acc
    in
    go []
  in
  let local = record_keys Supervisor.run_local "local.jsonl" in
  let forked = record_keys Supervisor.run "forked.jsonl" in
  check_bool "generation records emitted" true (local <> []);
  Alcotest.(check (list (list string))) "same key set" forked local;
  List.iter
    (fun key ->
      check_bool ("documented key " ^ key) true
        (List.for_all (List.mem key) local))
    [ "live_ranks"; "acceptance"; "rtt_max_s"; "respawns" ]

(* The acceptance scenario: 4 ranks, one SIGKILLed mid-run, recovered
   from its checkpoint shard; the run completes with finite estimators
   and the population under control. *)
let test_kill_recovery_from_shard () =
  let dir = tmpdir () in
  let path = Filename.concat dir "run.chk" in
  let p =
    {
      base_params with
      Supervisor.ranks = 4;
      target_walkers = 12;
      generations = 12;
      checkpoint = Some path;
      checkpoint_every = 3;
      faults = [ (2, 8, Fault.Rank_kill) ];
    }
  in
  let res = Supervisor.run ~factory p in
  check_int "one crash detected" 1 res.Supervisor.crashes;
  check_int "one respawn" 1 res.Supervisor.respawns;
  check_int "no rank permanently lost" 4 res.Supervisor.live_ranks;
  Alcotest.(check (list int)) "no ranks failed" [] res.Supervisor.ranks_failed;
  check_bool "the killed generation ran degraded" true
    (res.Supervisor.degraded_generations >= 1);
  assert_healthy "kill-recovery" res;
  check_bool "shards + manifest on disk" true
    (Checkpoint.latest_complete ~path ~ranks:4 <> None)

let test_stall_trips_heartbeat () =
  let p =
    {
      base_params with
      Supervisor.heartbeat_s = 0.25;
      generations = 8;
      faults = [ (1, 4, Fault.Rank_stall 3.0) ];
    }
  in
  let res = Supervisor.run ~factory p in
  check_int "stall detected by deadline" 1 res.Supervisor.heartbeat_timeouts;
  check_int "stalled rank respawned" 1 res.Supervisor.respawns;
  check_int "all ranks live at the end" 3 res.Supervisor.live_ranks;
  assert_healthy "stall-recovery" res

let test_garbage_frame_detected () =
  let p =
    {
      base_params with
      Supervisor.generations = 8;
      faults = [ (0, 3, Fault.Rank_garbage) ];
    }
  in
  let res = Supervisor.run ~factory p in
  check_int "garbage frame detected" 1 res.Supervisor.garbage_frames;
  check_int "corrupted rank respawned" 1 res.Supervisor.respawns;
  assert_healthy "garbage-recovery" res

let test_unrecoverable_degrades () =
  let p =
    {
      base_params with
      Supervisor.ranks = 3;
      max_respawn = 0;
      generations = 10;
      faults = [ (1, 5, Fault.Rank_kill) ];
    }
  in
  let res = Supervisor.run ~factory p in
  check_int "rank abandoned" 2 res.Supervisor.live_ranks;
  Alcotest.(check (list int)) "rank 1 lost" [ 1 ] res.Supervisor.ranks_failed;
  check_int "no respawns granted" 0 res.Supervisor.respawns;
  check_bool "remaining generations degraded" true
    (res.Supervisor.degraded_generations >= 5);
  assert_healthy "degraded" res

let test_restore_resumes_all_ranks () =
  let dir = tmpdir () in
  let path = Filename.concat dir "run.chk" in
  let p1 =
    {
      base_params with
      Supervisor.generations = 6;
      checkpoint = Some path;
      checkpoint_every = 2;
    }
  in
  let r1 = Supervisor.run ~factory p1 in
  let gen = Checkpoint.latest_complete ~path ~ranks:3 in
  check_bool "complete shard set written" true (gen <> None);
  let p2 = { p1 with Supervisor.restore = true; warmup = 0; generations = 4 } in
  let r2 = Supervisor.run ~factory p2 in
  assert_healthy "restored" r2;
  check_bool "restored run continues from the shards" true
    (List.length r2.Supervisor.final_walkers > 0);
  ignore r1

(* ---------- elastic membership ---------- *)

let conservation_ok (res : Supervisor.result) =
  List.for_all
    (fun m -> m.Supervisor.m_walkers_before = m.Supervisor.m_walkers_after)
    res.Supervisor.membership_log

let test_membership_grow_shrink_local () =
  let p =
    {
      base_params with
      Supervisor.elastic = true;
      generations = 12;
      membership =
        [ (3, Supervisor.Join); (6, Supervisor.Leave 1); (9, Supervisor.Join) ];
    }
  in
  let r = Supervisor.run_local ~factory p in
  check_int "two joins" 2 r.Supervisor.joins;
  check_int "one leave" 1 r.Supervisor.leaves;
  check_int "nothing skipped" 0 r.Supervisor.membership_skipped;
  check_bool "walkers conserved across every transition" true
    (conservation_ok r);
  (* 3 ranks + join(new slot 3) − leave(1) + join(refills slot 1). *)
  check_int "ends at four live ranks" 4 r.Supervisor.live_ranks;
  Alcotest.(check (list int))
    "join takes a fresh id, refill takes the vacated slot" [ 3; 1; 1 ]
    (List.map (fun m -> m.Supervisor.m_rank) r.Supervisor.membership_log);
  let r2 = Supervisor.run_local ~factory p in
  check_bool "membership path is deterministic" true
    (same_series r.Supervisor.energy_series r2.Supervisor.energy_series);
  assert_healthy "membership-local" r

(* The acceptance invariant: switching the elastic machinery ON without
   scheduling any membership events must not perturb a single bit. *)
let test_elastic_forked_matches_local_no_events () =
  let p = { base_params with Supervisor.elastic = true } in
  let local = Supervisor.run_local ~factory p in
  let forked = Supervisor.run ~factory p in
  check_bool "energy series bit-identical" true
    (same_series local.Supervisor.energy_series
       forked.Supervisor.energy_series);
  check_bool "final e_trial bit-identical" true
    (Int64.bits_of_float local.Supervisor.final_e_trial
    = Int64.bits_of_float forked.Supervisor.final_e_trial);
  check_int "comm identical" local.Supervisor.comm_messages
    forked.Supervisor.comm_messages;
  check_int "no membership activity" 0
    (forked.Supervisor.joins + forked.Supervisor.leaves
   + forked.Supervisor.membership_skipped)

let test_membership_forked_matches_local () =
  let p =
    {
      base_params with
      Supervisor.elastic = true;
      generations = 12;
      membership = [ (3, Supervisor.Join); (6, Supervisor.Leave 1) ];
    }
  in
  let local = Supervisor.run_local ~factory p in
  let forked = Supervisor.run ~factory p in
  check_bool "energy series bit-identical through join + leave" true
    (same_series local.Supervisor.energy_series
       forked.Supervisor.energy_series);
  check_bool "final e_trial bit-identical" true
    (Int64.bits_of_float local.Supervisor.final_e_trial
    = Int64.bits_of_float forked.Supervisor.final_e_trial);
  Alcotest.(check (array int))
    "population series identical" local.Supervisor.population_series
    forked.Supervisor.population_series;
  check_int "exchange messages identical" local.Supervisor.comm_messages
    forked.Supervisor.comm_messages;
  check_int "exchange bytes identical" local.Supervisor.comm_bytes
    forked.Supervisor.comm_bytes;
  check_int "both saw the join" local.Supervisor.joins forked.Supervisor.joins;
  check_int "both saw the leave" local.Supervisor.leaves
    forked.Supervisor.leaves;
  check_bool "forked transitions conserve walkers" true (conservation_ok forked);
  check_bool "local transitions conserve walkers" true (conservation_ok local);
  assert_healthy "membership-forked" forked

(* Kernel time reaches the registry's [timer_us.*] counters from every
   shard that swept, whatever membership does next: each incarnation
   ships its own timer deltas, so a refilled slot starts from zero and a
   retiring shard's last generation still counts.  At generation 6 the
   only shard that swept (rank 0) leaves while a Join refills slot 1, so
   that generation's growth comes from the retiring shard alone. *)
let test_refilled_slot_reports_kernel_time () =
  let module Metrics = Oqmc_obs.Metrics in
  let timer_us () =
    List.fold_left
      (fun acc (name, v) ->
        match v with
        | Metrics.Counter c when String.starts_with ~prefix:"timer_us." name ->
            acc + c
        | _ -> acc)
      0 (Metrics.snapshot ())
  in
  let p =
    {
      base_params with
      Supervisor.ranks = 1;
      target_walkers = 6;
      warmup = 0;
      generations = 10;
      elastic = true;
      membership =
        [
          (2, Supervisor.Join);
          (4, Supervisor.Leave 1);
          (6, Supervisor.Join);
          (6, Supervisor.Leave 0);
          (8, Supervisor.Join);
        ];
    }
  in
  let start = timer_us () in
  let after_gen = ref [] in
  let out =
    Supervisor.run_job ~factory ~local:true
      ~stop:(fun () ->
        after_gen := timer_us () :: !after_gen;
        false)
      p
  in
  let r = out.Supervisor.job_result in
  Alcotest.(check (list (pair string int)))
    "join 1, leave 1, refill 1 + leave 0, refill 0"
    [ ("join", 1); ("leave", 1); ("join", 1); ("leave", 0); ("join", 0) ]
    (List.map
       (fun m -> (m.Supervisor.m_kind, m.Supervisor.m_rank))
       r.Supervisor.membership_log);
  let totals = Array.of_list (start :: List.rev !after_gen) in
  check_int "one sample per generation" 11 (Array.length totals);
  for gen = 1 to 10 do
    check_bool
      (Printf.sprintf "timer_us.* grew in generation %d" gen)
      true
      (totals.(gen) > totals.(gen - 1))
  done

(* Degraded mode is reversible: a rank abandoned after its respawn
   budget runs out leaves a vacant slot a later Join refills. *)
let test_drain_refill_degraded_reversible () =
  let p =
    {
      base_params with
      Supervisor.elastic = true;
      generations = 12;
      max_respawn = 0;
      faults = [ (1, 4, Fault.Rank_kill) ];
      membership = [ (8, Supervisor.Join) ];
    }
  in
  let r = Supervisor.run ~factory p in
  check_int "one crash" 1 r.Supervisor.crashes;
  check_int "no respawns granted" 0 r.Supervisor.respawns;
  Alcotest.(check (list int))
    "rank 1 abandoned" [ 1 ] r.Supervisor.ranks_failed;
  check_int "the join landed" 1 r.Supervisor.joins;
  (match r.Supervisor.membership_log with
  | [ m ] -> check_int "join refilled the abandoned slot" 1 m.Supervisor.m_rank
  | _ -> Alcotest.fail "expected exactly one membership record");
  check_bool "generations ran degraded while short-handed" true
    (r.Supervisor.degraded_generations >= 1);
  check_int "back to full strength at the end" 3 r.Supervisor.live_ranks;
  assert_healthy "degraded-reversible" r

(* ---------- soft deadlines + straggler policies ---------- *)

let test_straggler_warn_counts () =
  let p =
    {
      base_params with
      Supervisor.elastic = true;
      generations = 8;
      gen_deadline_ms = 1;
      faults = [ (1, 4, Fault.Rank_stall 0.05) ];
    }
  in
  let r = Supervisor.run ~factory p in
  check_bool "sub-heartbeat stall trips the soft deadline" true
    (r.Supervisor.stragglers >= 1);
  check_int "warn never kills" 0
    (r.Supervisor.respawns + r.Supervisor.heartbeat_timeouts
   + r.Supervisor.crashes);
  check_int "warn never steals" 0 r.Supervisor.steals;
  assert_healthy "straggler-warn" r

let test_straggler_steal_sheds_walkers () =
  let p =
    {
      base_params with
      Supervisor.elastic = true;
      target_walkers = 24;
      generations = 8;
      gen_deadline_ms = 1;
      straggler_policy = Supervisor.Steal;
      faults = [ (1, 4, Fault.Rank_stall 0.05) ];
    }
  in
  let r = Supervisor.run ~factory p in
  check_bool "straggler observed" true (r.Supervisor.stragglers >= 1);
  check_bool "a quarter-shard steal happened" true (r.Supervisor.steals >= 1);
  check_int "stealing never kills" 0
    (r.Supervisor.respawns + r.Supervisor.crashes);
  assert_healthy "straggler-steal" r

(* ---------- chaos schedules ---------- *)

let test_chaos_plan_deterministic () =
  let mk seed =
    Chaos.plan ~seed ~gens:60 ~ranks:4 ~trajectory:[ 6; 3; 5 ] ~events:10 ()
  in
  let s1 = mk 11 in
  check_bool "same seed, same schedule" true (s1 = mk 11);
  let c = Chaos.count s1 in
  (* 4→6 is two joins, 6→3 three leaves, 3→5 two joins. *)
  check_int "trajectory joins" 4 c.Chaos.joins;
  check_int "trajectory leaves" 3 c.Chaos.leaves;
  check_int "fault events as requested" 10
    (c.Chaos.kills + c.Chaos.stalls + c.Chaos.garbage + c.Chaos.disk_full);
  check_int "total" 17 (Chaos.total s1);
  let faults, membership = Supervisor.of_chaos s1 in
  check_int "fault split" 10 (List.length faults);
  check_int "membership split" 7 (List.length membership);
  let gens = List.map fst s1 in
  check_bool "ascending by generation" true (List.sort compare gens = gens);
  check_bool "membership waypoints precede nothing invalid" true
    (List.for_all (fun (g, _) -> g >= 1 && g < 60) s1)

(* ---------- oqmc_run usage errors ---------- *)

let oqmc_run_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/oqmc_run.exe"

let run_cli args =
  let out = Filename.temp_file "oqmc_cli" ".out"
  and err = Filename.temp_file "oqmc_cli" ".err" in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
  and fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process oqmc_run_exe
      (Array.of_list (oqmc_run_exe :: args))
      Unix.stdin fd_out fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let _, status = Unix.waitpid [] pid in
  let read f =
    let s = In_channel.with_open_bin f In_channel.input_all in
    Sys.remove f;
    s
  in
  (status, read out, read err)

(* Rejected supervisor parameters and other bad command-line input end
   the run before any work with one [oqmc_run: <reason>] line on stderr
   and exit code 2. *)
let test_cli_rejects_bad_supervisor_params () =
  List.iter
    (fun extra ->
      let name = String.concat " " extra in
      let status, out, err =
        run_cli ([ "-m"; "dmc"; "-b"; "1"; "-s"; "2" ] @ extra)
      in
      check_bool (name ^ ": exit 2") true (status = Unix.WEXITED 2);
      Alcotest.(check string) (name ^ ": nothing on stdout") "" out;
      match String.split_on_char '\n' (String.trim err) with
      | [ line ] ->
          check_bool (name ^ ": one oqmc_run: line") true
            (String.starts_with ~prefix:"oqmc_run: " line
            && not (String.starts_with ~prefix:"oqmc_run: internal error" line))
      | _ -> Alcotest.failf "%s: expected one stderr line, got %S" name err)
    [
      [ "--ranks"; "5"; "-n"; "4" ];
      [ "--ranks"; "2"; "--gen-deadline-ms=-1" ];
      [ "--ranks"; "2"; "--heartbeat-ms"; "0" ];
      [ "-w"; "Bogus" ];
      [ "-n"; "0" ];
      [ "--crowd"; "0" ];
      [ "--precision"; "f16" ];
      [ "-v"; "Current-f64" ];
    ]

let () =
  Alcotest.run "dist"
    [
      ( "codec",
        [
          Alcotest.test_case "walker roundtrip is bit-exact" `Quick
            test_codec_bit_exact;
          Alcotest.test_case "malformed input rejected" `Quick
            test_codec_rejects_malformed;
        ] );
      ( "wire",
        [
          Alcotest.test_case "all frames roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "crc mismatch raises Garbage" `Quick
            test_wire_crc_garbage;
          Alcotest.test_case "unknown tag / trailing bytes" `Quick
            test_wire_unknown_tag_and_trailing;
          Alcotest.test_case "timeout and closed pipes" `Quick
            test_wire_timeout_and_closed;
          Alcotest.test_case "socketpair jumbo frame (partial writes)" `Quick
            test_wire_socketpair_partial_writes;
          Alcotest.test_case "closed peer raises Closed, not SIGPIPE" `Quick
            test_wire_socketpair_closed_peer;
          Alcotest.test_case "raw frames roundtrip + corruption" `Quick
            test_wire_raw_frames;
        ] );
      ( "shards",
        [
          Alcotest.test_case "shard save/load roundtrip" `Quick
            test_shard_roundtrip;
          Alcotest.test_case "manifest roundtrip + corruption" `Quick
            test_manifest_roundtrip_and_corruption;
          Alcotest.test_case "latest_complete falls back" `Quick
            test_latest_complete_falls_back;
          Alcotest.test_case "manifest past the complete set" `Quick
            test_manifest_partial_shard_set;
          Alcotest.test_case "manifest with no shards never crashes" `Quick
            test_manifest_missing_shards_never_crash;
          Alcotest.test_case "keep=1 rotation + corrupt newest" `Quick
            test_keep1_rotation_race;
          Alcotest.test_case "async double-buffered saves land" `Quick
            test_async_checkpoint_roundtrip;
        ] );
      ( "population",
        [
          Alcotest.test_case "extinction guard resets walker state" `Quick
            test_branch_extinction_resets_state;
          Alcotest.test_case "branch copies capped at 4" `Quick
            test_branch_copy_cap;
          Alcotest.test_case "branching factor clamped to exp(±2)" `Quick
            test_dmc_weight_clamp;
          Alcotest.test_case "load_balance uneven splits" `Quick
            test_load_balance_uneven;
          Alcotest.test_case "give/absorb preserve order" `Quick
            test_give_absorb_order;
          Alcotest.test_case "plan conserves and levels" `Quick
            test_plan_properties;
          Alcotest.test_case "exchange really moves walkers" `Quick
            test_exchange_moves_walkers;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "run_local is deterministic" `Quick
            test_run_local_deterministic;
          Alcotest.test_case "forked == local, bit for bit" `Quick
            test_forked_matches_local_bit_for_bit;
          Alcotest.test_case "snapshot drain + resume is bit-identical"
            `Quick test_snapshot_resume_bit_identical;
          Alcotest.test_case "telemetry keys match across executors" `Quick
            test_telemetry_same_keys_both_executors;
          Alcotest.test_case "SIGKILL mid-run: shard recovery" `Quick
            test_kill_recovery_from_shard;
          Alcotest.test_case "stall trips the heartbeat" `Quick
            test_stall_trips_heartbeat;
          Alcotest.test_case "garbage frame detected + respawn" `Quick
            test_garbage_frame_detected;
          Alcotest.test_case "respawn budget exhausted: degrade" `Quick
            test_unrecoverable_degrades;
          Alcotest.test_case "restore resumes every rank" `Quick
            test_restore_resumes_all_ranks;
        ] );
      ( "elastic",
        [
          Alcotest.test_case "local grow + shrink conserves walkers" `Quick
            test_membership_grow_shrink_local;
          Alcotest.test_case "elastic on, no events: still bit-identical"
            `Quick test_elastic_forked_matches_local_no_events;
          Alcotest.test_case "join + leave: forked == local, bit for bit"
            `Quick test_membership_forked_matches_local;
          Alcotest.test_case "refilled slot reports kernel time" `Quick
            test_refilled_slot_reports_kernel_time;
          Alcotest.test_case "abandoned slot refilled by a later join" `Quick
            test_drain_refill_degraded_reversible;
          Alcotest.test_case "straggler policy: warn" `Quick
            test_straggler_warn_counts;
          Alcotest.test_case "straggler policy: steal" `Quick
            test_straggler_steal_sheds_walkers;
          Alcotest.test_case "chaos plans are deterministic" `Quick
            test_chaos_plan_deterministic;
        ] );
      ( "cli",
        [
          Alcotest.test_case "bad supervisor params: one line, exit 2" `Quick
            test_cli_rejects_bad_supervisor_params;
        ] );
    ]
