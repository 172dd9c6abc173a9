module H = Hashtbl.Make (String)

(* A single-float record is stored flat, so updating [v] allocates nothing. *)
type cell = { mutable v : float }
type t = cell H.t

let create n = H.create n
(* Inlined, so the result reaches the caller unboxed. *)
let[@inline] get t k = match H.find t k with c -> c.v | exception Not_found -> 0.0

let add t k delta =
  match H.find t k with
  | c -> c.v <- c.v +. delta
  | exception Not_found -> H.add t k { v = 0.0 +. delta }

let set t k x =
  match H.find t k with c -> c.v <- x | exception Not_found -> H.add t k { v = x }

let reset = H.reset
let iter f t = H.iter (fun k c -> f k c.v) t
let fold f t acc = H.fold (fun k c acc -> f k c.v acc) t acc
