(** Fixed-size work-stealing domain pool.

    A pool of [jobs] runs tasks on [jobs] domains, the caller's included:
    [create ~jobs] spawns [jobs - 1] worker domains, each owning a deque of
    pending tasks, and the calling domain is the [jobs]-th, running tasks
    while it waits in {!await} or {!await_idle}.  So no more domains compete
    for cores than the caller asked for.  A worker drains its own deque LIFO
    (depth-first, cache warm); when empty it takes from the shared injection
    queue, then steals the older half of a victim's deque (breadth-first,
    so thieves grab the biggest remaining subtrees).  Tasks submitted from
    outside the pool land in the injection queue; tasks submitted by a
    worker land in its own deque.

    Exceptions never vanish: a task's exception is captured with its
    backtrace and re-raised at {!await} (for futures) or at the next
    {!await_idle}/{!shutdown} (for fire-and-forget posts).

    The pool is a throughput device, not a synchronisation device: tasks
    must not block on each other except through {!await}, which helps — it
    runs queued tasks while the future is unresolved, so a task may await
    work it submitted without deadlocking the worker it occupies. *)

type t

type 'a future

val create : jobs:int -> t
(** A pool of [max 1 jobs] domains, the caller included: spawn
    [max 1 jobs - 1] worker domains.  The calling domain executes tasks only
    while inside {!await} or {!await_idle}; with [jobs <= 1] nothing is
    spawned and every task runs there. *)

val size : t -> int
(** Number of domains that run tasks, the caller included: [max 1 jobs]. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Queue a task; its result (or exception) is delivered through the
    future.  Raises [Invalid_argument] after {!shutdown}. *)

val post : t -> (unit -> unit) -> unit
(** Fire-and-forget [submit].  The first exception raised by any posted
    task is re-raised by the next {!await_idle} or {!shutdown}. *)

val await : t -> 'a future -> 'a
(** Block until the future resolves, executing queued tasks in the
    meantime; re-raises the task's exception with its backtrace. *)

val await_idle : t -> unit
(** Block until every submitted task has completed (including tasks they
    submitted), helping in the meantime; then re-raise the first pending
    {!post} exception, if any. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list t f xs] runs [f] on every element concurrently and returns
    the results in input order.  On failures, the exception of the
    earliest failing {e element} (input order, not wall-clock order) is
    re-raised — deterministic even though execution is not. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** {!map_list} over arrays: run [f] on every element concurrently, results
    in input order, earliest failing element's exception re-raised. *)

val shutdown : t -> unit
(** Wait for quiescence, stop and join the workers, then re-raise any
    pending {!post} exception.  Must be called from outside the pool (a
    task must not shut down its own pool).  Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run the body, [shutdown] — also on exceptions. *)

val recommended_jobs : ?cap:int -> unit -> int
(** A sensible pool size for this host: the runtime's recommended domain
    count (the caller's domain counts as one of them), clamped to
    [\[1, cap\]].  The sanctioned way for upper layers to size a pool
    without touching [Domain] directly. *)
