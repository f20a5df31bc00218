(* Structured tracing: per-domain span ring buffers with a Chrome
   trace_event exporter.

   Every domain that records events owns a private ring buffer reached
   through domain-local storage, so the hot path — push one event — is
   lock-free: no sharing, no CAS, just an array store and two field
   writes.  The global mutex is touched only when a domain's ring is
   created and when the rings are drained for export.  Memory is bounded
   by construction: a full ring overwrites its oldest events (and counts
   them in [dropped]) instead of growing.

   The DISABLED path is a single atomic load and a branch: no
   allocation, no timestamp, no DLS access.  Tracing therefore never
   perturbs physics — spans observe wall-clock time only, never the RNG
   stream or any arithmetic — which is what lets the drivers assert
   bit-identical trajectories with tracing on and off.

   Spans are recorded as Chrome "complete" events (ph = "X"): a begin
   pushes onto a per-domain stack, the matching end pops it and writes
   one event carrying (start, duration).  Nesting within a (pid, tid)
   lane is correct by construction.  [instant] records point events
   (ph = "i").  Attribution: pid = rank (set once per process by
   [set_rank]), tid = the recording domain, free-form args carry
   crowd/walker/generation labels.

   Cross-rank: a worker rank serializes its rings to a compact binary
   blob ([serialize]) shipped over the wire; the supervisor [ingest]s
   each blob under the rank's pid, and [export] writes one merged
   Chrome-loadable JSON file covering every rank and domain. *)

type event = {
  name : string;
  ph : char; (* 'X' = complete span, 'i' = instant *)
  ts : float; (* seconds since [enable] *)
  dur : float; (* seconds; 0 for instants *)
  pid : int; (* rank *)
  tid : int; (* recording domain *)
  args : (string * string) list;
}

let default_capacity = 65536

(* ---------- global state ---------- *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

let rank = Atomic.make 0
let set_rank r = Atomic.set rank r

(* Trace epoch: wall-clock origin of every timestamp.  Wall clock (not a
   per-process monotonic counter) so events from forked ranks land on
   the same axis as the supervisor's. *)
let t0 = Atomic.make 0.
let capacity = Atomic.make default_capacity
let now = Unix.gettimeofday

type ring = {
  tid : int;
  cap : int;
  buf : event array;
  mutable len : int; (* total events ever written; ring index = len mod cap *)
  mutable stack : (string * float * (string * string) list) list;
  mutable dropped : int; (* events overwritten by ring wrap-around *)
}

let dummy =
  { name = ""; ph = 'i'; ts = 0.; dur = 0.; pid = 0; tid = 0; args = [] }

let registry : ring list ref = ref []
let registry_mutex = Mutex.create ()

(* Events ingested from other processes, tagged with their pid. *)
let foreign : event list ref = ref []

let dls_ring : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let ring () =
  let slot = Domain.DLS.get dls_ring in
  match !slot with
  | Some r -> r
  | None ->
      let cap = max 16 (Atomic.get capacity) in
      let r =
        {
          tid = (Domain.self () :> int);
          cap;
          buf = Array.make cap dummy;
          len = 0;
          stack = [];
          dropped = 0;
        }
      in
      Mutex.lock registry_mutex;
      registry := r :: !registry;
      Mutex.unlock registry_mutex;
      slot := Some r;
      r

let push r ev =
  if r.len >= r.cap then r.dropped <- r.dropped + 1;
  r.buf.(r.len mod r.cap) <- ev;
  r.len <- r.len + 1

(* ---------- recording ---------- *)

let span_begin ?(args = []) name =
  if enabled () then begin
    let r = ring () in
    r.stack <- (name, now (), args) :: r.stack
  end

let span_end () =
  if enabled () then begin
    let r = ring () in
    match r.stack with
    | [] -> () (* unmatched end: ignore rather than corrupt the ring *)
    | (name, start, args) :: rest ->
        r.stack <- rest;
        push r
          {
            name;
            ph = 'X';
            ts = start -. Atomic.get t0;
            dur = now () -. start;
            pid = Atomic.get rank;
            tid = r.tid;
            args;
          }
  end

let with_span ?args name f =
  if not (enabled ()) then f ()
  else begin
    span_begin ?args name;
    match f () with
    | v ->
        span_end ();
        v
    | exception e ->
        span_end ();
        raise e
  end

let instant ?(args = []) name =
  if enabled () then begin
    let r = ring () in
    push r
      {
        name;
        ph = 'i';
        ts = now () -. Atomic.get t0;
        dur = 0.;
        pid = Atomic.get rank;
        tid = r.tid;
        args;
      }
  end

(* ---------- lifecycle ---------- *)

let clear () =
  Mutex.lock registry_mutex;
  List.iter
    (fun r ->
      r.len <- 0;
      r.stack <- [];
      r.dropped <- 0)
    !registry;
  foreign := [];
  Mutex.unlock registry_mutex

let enable ?capacity:(cap = default_capacity) () =
  Atomic.set capacity cap;
  Atomic.set t0 (now ());
  clear ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

let dropped () =
  Mutex.lock registry_mutex;
  let d = List.fold_left (fun a r -> a + r.dropped) 0 !registry in
  Mutex.unlock registry_mutex;
  d

(* ---------- draining ---------- *)

let ring_events r =
  let n = min r.len r.cap in
  let start = r.len - n in
  List.init n (fun i -> r.buf.((start + i) mod r.cap))

let local_events () =
  Mutex.lock registry_mutex;
  let evs = List.concat_map ring_events !registry in
  Mutex.unlock registry_mutex;
  evs

(* Within a lane, by start time; spans starting on the same clock tick
   put the longer one first, so a parent always precedes its children. *)
let by_lane a b =
  compare (a.pid, a.tid, a.ts, b.ts +. b.dur) (b.pid, b.tid, b.ts, a.ts +. a.dur)

let events () = List.sort by_lane (local_events () @ !foreign)

(* ---------- cross-process transport ---------- *)

(* Compact binary codec for shipping a rank's events to the supervisor.
   Layout: u32 count, then per event
     u8 ph | u32 tid | f64 ts | f64 dur | str name | u32 nargs | (str str)*
   where str = u32 length + bytes.  Integers big-endian, floats as IEEE
   bits — the same conventions as the wire protocol that carries it. *)

let put_i32 buf n = Buffer.add_int32_be buf (Int32.of_int n)
let put_f64 buf v = Buffer.add_int64_be buf (Int64.bits_of_float v)

let put_str buf s =
  put_i32 buf (String.length s);
  Buffer.add_string buf s

let serialize () =
  let evs = List.sort by_lane (local_events ()) in
  let buf = Buffer.create 4096 in
  put_i32 buf (List.length evs);
  List.iter
    (fun e ->
      Buffer.add_uint8 buf (Char.code e.ph);
      put_i32 buf e.tid;
      put_f64 buf e.ts;
      put_f64 buf e.dur;
      put_str buf e.name;
      put_i32 buf (List.length e.args);
      List.iter
        (fun (k, v) ->
          put_str buf k;
          put_str buf v)
        e.args)
    evs;
  Buffer.contents buf

exception Malformed

let get_i32 s pos =
  if !pos + 4 > String.length s then raise Malformed;
  let v = Int32.to_int (String.get_int32_be s !pos) in
  pos := !pos + 4;
  v

let get_f64 s pos =
  if !pos + 8 > String.length s then raise Malformed;
  let v = Int64.float_of_bits (String.get_int64_be s !pos) in
  pos := !pos + 8;
  v

let get_str s pos =
  let len = get_i32 s pos in
  if len < 0 || !pos + len > String.length s then raise Malformed;
  let v = String.sub s !pos len in
  pos := !pos + len;
  v

let deserialize ~pid blob =
  let pos = ref 0 in
  let count = get_i32 blob pos in
  if count < 0 then raise Malformed;
  let evs =
    List.init count (fun _ ->
        if !pos >= String.length blob then raise Malformed;
        let ph = Char.chr (Char.code blob.[!pos]) in
        incr pos;
        let tid = get_i32 blob pos in
        let ts = get_f64 blob pos in
        let dur = get_f64 blob pos in
        let name = get_str blob pos in
        let nargs = get_i32 blob pos in
        if nargs < 0 then raise Malformed;
        let args =
          List.init nargs (fun _ ->
              let k = get_str blob pos in
              let v = get_str blob pos in
              (k, v))
        in
        { name; ph; ts; dur; pid; tid; args })
  in
  if !pos <> String.length blob then raise Malformed;
  evs

let ingest ~pid blob =
  let evs = deserialize ~pid blob in
  Mutex.lock registry_mutex;
  foreign := !foreign @ evs;
  Mutex.unlock registry_mutex

(* ---------- Chrome trace_event export ---------- *)

let json_of_event e =
  let base =
    [
      ("name", Jsonx.Str e.name);
      ("cat", Jsonx.Str "oqmc");
      ("ph", Jsonx.Str (String.make 1 e.ph));
      ("ts", Jsonx.Num (e.ts *. 1e6));
      ("pid", Jsonx.Num (float_of_int e.pid));
      ("tid", Jsonx.Num (float_of_int e.tid));
    ]
  in
  let timing =
    if e.ph = 'X' then [ ("dur", Jsonx.Num (e.dur *. 1e6)) ]
    else [ ("s", Jsonx.Str "t") ] (* thread-scoped instant *)
  in
  let args =
    match e.args with
    | [] -> []
    | kvs ->
        [ ("args", Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Str v)) kvs)) ]
  in
  Jsonx.Obj (base @ timing @ args)

let export_json () =
  Jsonx.Obj
    [
      ("traceEvents", Jsonx.Arr (List.map json_of_event (events ())));
      ("displayTimeUnit", Jsonx.Str "ms");
      ("otherData", Jsonx.Obj [ ("dropped", Jsonx.Num (float_of_int (dropped ()))) ]);
    ]

let export_string () = Jsonx.to_string (export_json ())

let export ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      Jsonx.to_buffer buf (export_json ());
      Buffer.output_buffer oc buf)
