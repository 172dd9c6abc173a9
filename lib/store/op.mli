(** Logical write operations.

    Per the paper's system model (Section 2), writes are {e procedures}: they
    check for conflicts against the underlying database before updating it and
    may take an alternative action on conflict.  Because tentative writes can
    be rolled back and reapplied in a different order, the same operation may
    yield different outcomes across applications; the outcome under the final
    committed order is the write's {e actual} result.

    Every operation is plain data: it encodes onto the wire ({!Codec}), has
    an exact {!wire_size}, and {!apply} is a total, deterministic function
    of the database image.  The guarded constructors express the
    application procedures (seat reservation, capacity admission, text
    editing, ...) by what they do to the store. *)

type outcome =
  | Applied of Value.t  (** the write's return value *)
  | Conflict of string  (** the write procedure detected a conflict and took
                            its alternative action (a no-op plus this reason) *)

type t =
  | Noop
  | Set of string * Value.t
  | Add of string * float
      (** numeric increment (negative = decrement); returns the new value *)
  | Append of string * Value.t  (** add to the list at the key; returns [Nil] *)
  | Add_within of { key : string; delta : float; lo : float; hi : float }
      (** [Add] guarded by a range: applies only when
          [lo <= v +. delta <= hi] (a missing key reads as 0), returning the
          new value; otherwise conflicts.  Capacity admission, withdrawals
          that must not overdraw. *)
  | Append_absent of string * Value.t
      (** [Append] unless the list already holds an equal element, which
          conflicts; returns the element.  Seat reservation. *)
  | Concat of string * string
      (** Append text to the string at the key (missing = [""]); returns
          [Nil]. *)
  | Truncate of string * int
      (** Drop up to [n] characters from the end of the string at the key;
          returns how many were dropped as an [Int].  A negative [n]
          conflicts. *)
  | Stamp of string * string
      (** [Stamp (counter, key)]: increment [counter] by 1 and store its new
          value at [key] — records this write's position in the application
          order; returns [Nil]. *)
  | Add_pair of { key1 : string; delta1 : float; key2 : string; delta2 : float }
      (** Two increments applied together (both keys must hold numbers);
          returns [Nil]. *)

val apply : t -> Db.t -> outcome
(** Execute the operation against the database image, mutating it.  Total:
    a value of the wrong type at a key the op reads ([Add] on a string,
    [Append] on a number, ...) conflicts and leaves the image untouched. *)

val wire_size : t -> int
(** Exact encoded size under the {!Codec} wire format. *)

val describe : t -> string

val conflicted : outcome -> bool
val result : outcome -> Value.t
(** The return value; [Nil] for conflicts. *)
