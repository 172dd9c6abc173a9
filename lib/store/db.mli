(** Mutable database image: the state a replica exposes to reads.

    Each replica maintains two images (see {!Wlog}): one reflecting only the
    committed prefix of the write log, and the full view including tentative
    writes.  Rollback of tentative writes works by journalling each write's
    mutations as it is applied ({!start_recording}) and replaying the journal
    backwards ({!revert}) — so a rollback costs the size of the undone suffix,
    not of the whole image.

    Contract:
    - each key is one mutable cell, so {!get}, {!set} and {!add_get} cost
      one hash lookup each;
    - {!copy} copies every cell: mutating either image afterwards never
      shows through in the other;
    - an undo record names keys, not cells, so it may be reverted over any
      image holding the bindings it was recorded against (the sanitizer
      reverts journals over a {!copy}), and reverting it touches only that
      image;
    - {!keys} lists keys in the bucket order of a generic
      [(string, _) Hashtbl.t] given the same operations (unspecified, but
      deterministic). *)

type t

type undo
(** A journal of mutations, sufficient to revert them (opaque). *)

val create : (string * Value.t) list -> t
val copy : t -> t

val get : t -> string -> Value.t
(** Missing keys read as [Value.Nil]. *)

val set : t -> string -> Value.t -> unit

val get_float : t -> string -> float
val get_int : t -> string -> int

val add_get : t -> string -> float -> Value.t
(** Numeric increment, returning the [Float] it stored; missing keys (and
    [Nil]) start at 0.  A key holding a string or a list is left untouched
    and the result is [Nil]. *)

val keys : t -> string list

val equal : t -> t -> bool
(** Value equality of the two images (missing keys read as [Nil]);
    short-circuits on the first mismatch. *)

val size : t -> int

val start_recording : t -> unit
(** Turn mutation journalling on.  Recordings do not nest. *)

val stop_recording : t -> undo
(** Turn journalling off and return the undo record of every mutation since
    {!start_recording}.  Closure-free by design: the write log records each
    write's journal on its accept path.  The caller must stop on every exit,
    a raising one included, or the next {!start_recording} fails its
    no-nesting assertion. *)

val revert : t -> undo -> unit
(** Revert the mutations captured by a recording ({!stop_recording}).  Undo
    records must be reverted newest-recording-first to restore a past state.
    A key the recording created is removed again (it leaves {!keys}). *)
