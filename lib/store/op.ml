type outcome = Applied of Value.t | Conflict of string

type t =
  | Noop
  | Set of string * Value.t
  | Add of string * float
  | Append of string * Value.t
  | Proc of proc
  | Named of string * Value.t

and proc = { name : string; size : int; body : Db.t -> outcome }

(* SA030/SA020 baselined -- write-once procedure table: applications
   register procedures at startup, before any simulation runs, and replay
   only reads it, so re-entrancy is preserved *)
let registry : (string, Value.t -> Db.t -> outcome) Hashtbl.t = Hashtbl.create 16

let register_proc name body = Hashtbl.replace registry name body
let proc_registered name = Hashtbl.mem registry name

let apply t db =
  match t with
  | Noop -> Applied Value.Nil
  | Set (k, v) ->
    Db.set db k v;
    Applied v
  | Add (k, d) -> Applied (Db.add_get db k d)
  | Append (k, v) ->
    Db.append db k v;
    Applied Value.Nil
  | Proc p -> p.body db
  | Named (name, arg) -> (
    match Hashtbl.find_opt registry name with
    | Some body -> body arg db
    | None -> invalid_arg (Printf.sprintf "Op.apply: procedure %S not registered" name))

let guarded ~name ?(size = 32) ~check ~apply ?(alt = fun _ -> "conflict") () =
  Proc
    {
      name;
      size;
      body =
        (fun db -> if check db then Applied (apply db) else Conflict (alt db));
    }

(* Exact encoded size under Codec's wire format.  [Proc] never crosses the
   wire (Codec raises Unserializable); its declared modelled size keeps
   traffic accounting meaningful for closure-based simulations. *)
let wire_size = function
  | Noop -> 1
  | Set (k, v) | Append (k, v) -> 1 + 8 + String.length k + Value.wire_size v
  | Add (k, _) -> 1 + 8 + String.length k + 8
  | Named (name, arg) -> 1 + 8 + String.length name + Value.wire_size arg
  | Proc p -> p.size

let byte_size = function
  | Noop -> 4
  | Set (k, v) -> 8 + String.length k + Value.byte_size v
  | Add (k, _) -> 16 + String.length k
  | Append (k, v) -> 8 + String.length k + Value.byte_size v
  | Proc p -> p.size
  | Named (name, arg) -> 8 + String.length name + Value.byte_size arg

let describe = function
  | Noop -> "noop"
  | Set (k, v) -> Printf.sprintf "set %s := %s" k (Value.to_string v)
  | Add (k, d) -> Printf.sprintf "add %s += %g" k d
  | Append (k, v) -> Printf.sprintf "append %s <- %s" k (Value.to_string v)
  | Proc p -> p.name
  | Named (name, arg) -> Printf.sprintf "%s(%s)" name (Value.to_string arg)

let conflicted = function Conflict _ -> true | Applied _ -> false
let result = function Applied v -> v | Conflict _ -> Value.Nil
