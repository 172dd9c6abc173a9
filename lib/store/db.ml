(* One mutable cell per key: a read, a write or an increment costs one
   string-hash lookup, and overwriting a present key writes through its
   cell.  [String.hash] equals the polymorphic [Hashtbl.hash] on strings,
   so the bucket layout — and with it [keys] order — is exactly that of a
   generic [(string, Value.t) Hashtbl.t] fed the same operations. *)
module H = Hashtbl.Make (String)

type cell = { mutable v : Value.t }

(* Undo entries name the key, never the cell: a journal recorded on one
   image must revert any image holding the same bindings — the sanitizer
   replays journals over a [copy] — and a cell belongs to exactly one. *)
type undo_entry = Was of string * Value.t | Absent of string
type undo = undo_entry list

(* [log] collects the journal while [recording] is set. *)
type t = { tbl : cell H.t; mutable recording : bool; mutable log : undo }

let create bindings =
  let tbl = H.create 64 in
  List.iter (fun (k, v) -> H.replace tbl k { v }) bindings;
  { tbl; recording = false; log = [] }

let copy t =
  let tbl = H.copy t.tbl in
  H.filter_map_inplace (fun _ c -> Some { v = c.v }) tbl;
  { tbl; recording = false; log = [] }

let get t k = match H.find t.tbl k with c -> c.v | exception Not_found -> Value.Nil

(* The entry is built only while recording. *)
let journal_was t k prev = if t.recording then t.log <- Was (k, prev) :: t.log
let journal_absent t k = if t.recording then t.log <- Absent k :: t.log

let set t k v =
  match H.find t.tbl k with
  | c ->
    journal_was t k c.v;
    c.v <- v
  | exception Not_found ->
    journal_absent t k;
    H.add t.tbl k { v }

let get_float t k = Value.to_float (get t k)
let get_int t k = Value.to_int (get t k)

let store t c k x =
  let v = Value.Float x in
  journal_was t k c.v;
  c.v <- v;
  v

(* [Nil] is never a sum, so it can report "not a number" without
   allocating an option on the hot path. *)
let add_get t k delta =
  match H.find t.tbl k with
  | c -> (
    match c.v with
    | Value.Float x -> store t c k (x +. delta)
    | Value.Int i -> store t c k (float_of_int i +. delta)
    | Value.Nil -> store t c k (0.0 +. delta)
    | Value.Str _ | Value.List _ -> Value.Nil)
  | exception Not_found ->
    (* A missing key reads as 0. *)
    let v = Value.Float (0.0 +. delta) in
    journal_absent t k;
    H.add t.tbl k { v };
    v

(* Unordered (bucket order); callers sort before iterating. *)
let keys t = H.fold (fun k _ acc -> k :: acc) t.tbl []

(* Every mutation between the two calls is journalled; the undo record
   [stop_recording] returns reverts them all (see {!revert}).  Recordings do
   not nest. *)
let start_recording t =
  assert (not t.recording);
  t.recording <- true

let stop_recording t =
  let u = t.log in
  t.recording <- false;
  t.log <- [];
  u

(* The journal holds entries newest first, and each entry stores the binding
   before its own mutation, so replaying the journal in list order restores
   the pre-recording state — even with repeated writes to one key.  Each
   entry is resolved by key in [t], whichever image recorded it. *)
let revert t (u : undo) =
  List.iter
    (function
      | Was (k, v) -> (
        match H.find t.tbl k with
        | c -> c.v <- v
        | exception Not_found -> H.add t.tbl k { v })
      | Absent k -> H.remove t.tbl k)
    u

exception Unequal

let equal a b =
  (* Missing keys read as Nil, so a key bound to Nil on one side and absent
     on the other still compares equal.  Short-circuits on first mismatch. *)
  let subset x y =
    try
      (* Membership test, order-independent. *)
      H.iter (fun k c -> if not (Value.equal c.v (get y k)) then raise Unequal) x.tbl;
      true
    with Unequal -> false
  in
  subset a b && subset b a

let size t = H.length t.tbl
