(** Binary min-heap keyed by [(time, seq)] — the event queue of the
    discrete-event engine.  The integer [seq] (insertion sequence) breaks
    ties between equal times, so execution order of simultaneous events is
    deterministic.

    Contract:
    - keys are compared as [time] first, then [seq]; callers give every
      entry a distinct [seq], which makes the order total and the pop order
      a function of the key set alone (not of push order);
    - [time] is never NaN;
    - {!push}, {!min_time}, {!min_seq} and {!pop_min} allocate nothing once
      the backing arrays have grown to the peak size (they double on
      demand and never shrink);
    - {!min_time}, {!min_seq} and {!pop_min} raise [Invalid_argument] on an
      empty heap — test {!is_empty} first. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val min_time : 'a t -> float
(** Time of the minimum entry. *)

val min_seq : 'a t -> int
(** Sequence number of the minimum entry. *)

val pop_min : 'a t -> 'a
(** Remove the minimum entry and return its value.  Read {!min_time} and
    {!min_seq} first for its key. *)

val iter : (time:float -> seq:int -> 'a -> unit) -> 'a t -> unit
(** Visit every queued entry in unspecified (heap-internal) order. *)
