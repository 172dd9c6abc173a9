type outcome = Applied of Value.t | Conflict of string

type t =
  | Noop
  | Set of string * Value.t
  | Add of string * float
  | Append of string * Value.t
  | Add_within of { key : string; delta : float; lo : float; hi : float }
  | Append_absent of string * Value.t
  | Concat of string * string
  | Truncate of string * int
  | Stamp of string * string
  | Add_pair of { key1 : string; delta1 : float; key2 : string; delta2 : float }

(* [apply] is total: an op meeting a value of the wrong type (or carrying a
   nonsensical argument) conflicts and leaves the image untouched, so no
   client frame and no replayed peer write can raise out of a replica. *)
let not_a_number = Conflict "not a number"
let not_a_list = Conflict "not a list"
let not_text = Conflict "not text"

let number = function
  | Value.Nil -> Some 0.0
  | Value.Int i -> Some (float_of_int i)
  | Value.Float f -> Some f
  | Value.Str _ | Value.List _ -> None

let text = function Value.Nil -> Some "" | Value.Str s -> Some s | _ -> None

(* Lists are kept newest-first, so adding is constant time. *)
let list = function Value.Nil -> Some [] | Value.List l -> Some l | _ -> None

let apply t db =
  match t with
  | Noop -> Applied Value.Nil
  | Set (k, v) ->
    Db.set db k v;
    Applied v
  | Add (k, d) -> (
    match Db.add_get db k d with Value.Nil -> not_a_number | v -> Applied v)
  | Append (k, v) -> (
    match list (Db.get db k) with
    | None -> not_a_list
    | Some l ->
      Db.set db k (Value.List (v :: l));
      Applied Value.Nil)
  | Add_within { key; delta; lo; hi } -> (
    match number (Db.get db key) with
    | None -> not_a_number
    | Some v when not (lo <= v +. delta && v +. delta <= hi) ->
      Conflict (Printf.sprintf "%s would be %g, outside [%g, %g]" key (v +. delta) lo hi)
    | Some v ->
      let r = Value.Float (v +. delta) in
      Db.set db key r;
      Applied r)
  | Append_absent (k, v) -> (
    match list (Db.get db k) with
    | None -> not_a_list
    | Some l when List.exists (Value.equal v) l ->
      Conflict (Printf.sprintf "%s already holds %s" k (Value.to_string v))
    | Some l ->
      Db.set db k (Value.List (v :: l));
      Applied v)
  | Concat (k, s) -> (
    match text (Db.get db k) with
    | None -> not_text
    | Some cur ->
      Db.set db k (Value.Str (cur ^ s));
      Applied Value.Nil)
  | Truncate (k, n) -> (
    match text (Db.get db k) with
    | None -> not_text
    | Some _ when n < 0 -> Conflict "negative count"
    | Some cur ->
      let keep = max 0 (String.length cur - n) in
      Db.set db k (Value.Str (String.sub cur 0 keep));
      Applied (Value.Int (String.length cur - keep)))
  | Stamp (counter, k) -> (
    match Db.add_get db counter 1.0 with
    | Value.Nil -> not_a_number
    | v ->
      Db.set db k v;
      Applied Value.Nil)
  | Add_pair { key1; delta1; key2; delta2 } -> (
    match (number (Db.get db key1), number (Db.get db key2)) with
    | Some _, Some _ ->
      ignore (Db.add_get db key1 delta1);
      ignore (Db.add_get db key2 delta2);
      Applied Value.Nil
    | _ -> not_a_number)

(* Exact encoded size under Codec's wire format: a tag byte, then
   length-prefixed strings, 8-byte numbers and tagged values. *)
let str s = 8 + String.length s

let wire_size = function
  | Noop -> 1
  | Set (k, v) | Append (k, v) | Append_absent (k, v) -> 1 + str k + Value.wire_size v
  | Add (k, _) | Truncate (k, _) -> 1 + str k + 8
  | Add_within { key; _ } -> 1 + str key + 24
  | Concat (k, s) | Stamp (k, s) -> 1 + str k + str s
  | Add_pair { key1; key2; _ } -> 1 + str key1 + 8 + str key2 + 8

let describe = function
  | Noop -> "noop"
  | Set (k, v) -> Printf.sprintf "set %s := %s" k (Value.to_string v)
  | Add (k, d) -> Printf.sprintf "add %s += %g" k d
  | Append (k, v) -> Printf.sprintf "append %s <- %s" k (Value.to_string v)
  | Add_within { key; delta; lo; hi } ->
    Printf.sprintf "add %s += %g within [%g, %g]" key delta lo hi
  | Append_absent (k, v) -> Printf.sprintf "append-absent %s <- %s" k (Value.to_string v)
  | Concat (k, s) -> Printf.sprintf "concat %s ^= %S" k s
  | Truncate (k, n) -> Printf.sprintf "truncate %s -= %d" k n
  | Stamp (counter, k) -> Printf.sprintf "stamp %s := ++%s" k counter
  | Add_pair { key1; delta1; key2; delta2 } ->
    Printf.sprintf "add %s += %g, %s += %g" key1 delta1 key2 delta2

let conflicted = function Conflict _ -> true | Applied _ -> false
let result = function Applied v -> v | Conflict _ -> Value.Nil
