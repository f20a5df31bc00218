(** A crowd of walkers marching in lockstep through the PbP sweep (the
    hierarchical-parallelism layer of QMCPACK's batched drivers): one
    crowd per domain and [size] engines (one per resident walker).  When
    the engines publish a matching crowd hook, every move kernel runs as
    one batched call per crowd per stage (the full pipeline); otherwise
    each slot runs its scalar [Engine_api.sweep] in turn.  Per walker,
    arithmetic and RNG draw order are those of [Engine_api.sweep] —
    crowd trajectories are bit-identical to the scalar reference on the
    double path. *)

type t

val create :
  factory:(int -> Engine_api.t) -> base:int -> size:int -> unit -> t
(** Engines are built by [factory (base + s)] for slot [s < size] — give
    each domain's crowd a distinct [base] so engine seeds stay unique.
    The crowd runs the full pipeline when every engine publishes a
    matching crowd hook ({!pipelined} reports the outcome).
    @raise Invalid_argument if [size < 1]. *)

val size : t -> int

val pipelined : t -> bool
(** Whether this crowd runs the full batched pipeline (tests use it to
    guard against a silent fallback to scalar sweeps). *)

val engine : t -> int -> Engine_api.t
(** The engine holding slot [s]'s walker state — use it to
    restore/measure/save that walker exactly as in the scalar driver. *)

val sweep :
  t ->
  active:int ->
  rng:(int -> Oqmc_rng.Xoshiro.t) ->
  tau:float ->
  Engine_api.sweep_result array
(** One drift-and-diffusion sweep of walkers [0..active-1] in lockstep;
    [rng s] is slot [s]'s stream.
    @raise Invalid_argument unless [1 <= active <= size]. *)
