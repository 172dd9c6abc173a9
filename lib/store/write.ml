type id = { origin : int; seq : int }

type weight = { conit : string; nweight : float; oweight : float }

type t = {
  id : id;
  accept_time : float;
  op : Op.t;
  affects : weight list;
  mutable size_cache : int;
      (* Exact wire size, computed lazily by [byte_size]; -1 = not yet
         computed.  Writes are otherwise immutable, so concurrent domains can
         at worst race to store the same value — a benign race. *)
}

let make ~id ~accept_time ~op ~affects =
  { id; accept_time; op; affects; size_cache = -1 }

let compare_id a b =
  match Int.compare a.origin b.origin with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let id_to_string id = Printf.sprintf "w%d.%d" id.origin id.seq

module Id_tbl = Hashtbl.Make (struct
  type t = id

  let equal a b = a.origin = b.origin && a.seq = b.seq

  (* An odd multiplier keeps consecutive seqs of one origin in distinct
     buckets of any power-of-two table. *)
  let hash a = (a.seq * 65599) + a.origin
end)

let ts_compare a b =
  match Float.compare a.accept_time b.accept_time with
  | 0 -> compare_id a.id b.id
  | c -> c

let weight_for w conit = List.find_opt (fun x -> String.equal x.conit conit) w.affects

let affects_conit w conit =
  match weight_for w conit with
  | Some x -> x.nweight <> 0.0 || x.oweight <> 0.0
  | None -> false

let nweight w conit =
  match weight_for w conit with Some x -> x.nweight | None -> 0.0

let oweight w conit =
  match weight_for w conit with Some x -> x.oweight | None -> 0.0

let total_oweight w = List.fold_left (fun acc x -> acc +. x.oweight) 0.0 w.affects

let byte_size w =
  if w.size_cache >= 0 then w.size_cache
  else begin
    (* Mirrors Codec.encode_write: origin + seq + accept_time + naffects
       header (4 × 8 bytes), then per affect a length-prefixed conit name plus
       two weight floats, then the op payload. *)
    let size =
      32 + Op.wire_size w.op
      + List.fold_left (fun acc x -> acc + 24 + String.length x.conit) 0 w.affects
    in
    w.size_cache <- size;
    size
  end

let to_string w =
  Printf.sprintf "%s@%.3f %s" (id_to_string w.id) w.accept_time (Op.describe w.op)
