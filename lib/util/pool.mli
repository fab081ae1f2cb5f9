(** A fixed-size domain work-pool for embarrassingly parallel analysis
    phases.

    Work items are distributed over a fixed number of OCaml 5 domains
    through a chunked atomic work queue; results are collected into the
    input order, so for a pure worker function the output is identical
    to the sequential map regardless of the domain count or scheduling.

    Exception semantics match the sequential path: every item is
    attempted, failures are recorded per item, and after all domains
    join the exception of the {e lowest} failing index is re-raised with
    its original backtrace — exactly the exception a plain [List.map]
    would have raised first.

    Workers run concurrently in shared memory: they must not mutate
    shared state. The analysis pipeline guarantees this by sealing the
    trace store ({!Lockdoc_db.Store.seal} — but see that module) before
    fanning out. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], clamped to [[1, 64]]. *)

val init : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [init ~jobs n f] is [Array.init n f] evaluated on [jobs] domains
    (the calling domain included). [jobs] defaults to {!default_jobs};
    [jobs <= 1] or [n <= 1] runs sequentially on the calling domain
    without spawning. Otherwise the calling domain works alone for
    up to 2 ms and spawns the other workers only if items remain, so a
    small call spawns nothing. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map], order preserved. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** Parallel [List.mapi], order preserved. *)

val map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map], order preserved. *)

val concat_map : ?jobs:int -> ('a -> 'b list) -> 'a list -> 'b list
(** Parallel [List.concat_map]: the per-item lists are concatenated in
    input order. *)

(** {2 Detached jobs}

    One-shot background work on its own domain, for callers that need
    to keep serving while an analysis runs — the serve daemon seals
    sessions this way. Unlike the map family above there is no queue:
    one [spawn] is one domain, and the caller owns its lifecycle. *)

type 'a job
(** A computation running (or finished) on a dedicated domain. *)

val spawn : (unit -> 'a) -> 'a job
(** Start [f] on a fresh domain immediately. The job captures a normal
    return as [Ok] and any exception as [Error] — nothing escapes onto
    the spawning domain until {!await}. *)

val poll : 'a job -> ('a, exn) result option
(** Non-blocking completion check: [None] while the job still runs.
    A [Some] result does not reap the domain — call {!await} (which is
    then immediate) exactly once per job to release it. *)

val await : 'a job -> ('a, exn) result
(** Join the job's domain and return its outcome. Must be called
    exactly once per job; a second call raises [Invalid_argument]. *)
