(** A string-keyed float accumulator: per-conit weight tallies.

    Each key owns one flat float cell, so {!add} and {!get} cost one hash
    lookup and box nothing — unlike a [(string, float) Hashtbl.t], whose
    every update pays a lookup for the old value, another to replace it,
    and a fresh boxed float.  Missing keys read as [0.0]; {!add} on a
    missing key stores exactly [0.0 +. delta], as a read-modify-write of
    a missing entry would. *)

type t

val create : int -> t
(** An empty tally sized for about that many keys. *)

val get : t -> string -> float
val add : t -> string -> float -> unit
val set : t -> string -> float -> unit

val reset : t -> unit

val iter : (string -> float -> unit) -> t -> unit
(** Unspecified order; use only for order-independent work. *)

val fold : (string -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** Unspecified order; use only for commutative folds, or sort the
    result. *)
