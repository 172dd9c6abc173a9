(* Keys live in parallel flat arrays — an unboxed [float array] of times and
   an [int array] of sequence numbers — beside the value array, so sifting
   compares without chasing a pointer per entry and a push or [pop_min]
   allocates nothing once the arrays have grown.  Sifts move a hole rather
   than swapping, writing each displaced entry once. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
}

let create () = { times = [||]; seqs = [||]; vals = [||]; len = 0 }

let is_empty t = t.len = 0
let size t = t.len

(* [v] fills the fresh tail of the value array; slots at or beyond [len] are
   never read. *)
let grow t v =
  let cap = Array.length t.seqs in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let times = Array.make ncap 0.0 in
  let seqs = Array.make ncap 0 in
  let vals = Array.make ncap v in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.vals 0 vals 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.vals <- vals

let move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.vals.(dst) <- t.vals.(src)

let push t ~time ~seq v =
  if t.len = Array.length t.seqs then grow t v;
  (* Sift up: walk the hole from the new leaf towards the root while the
     parent's key is greater. *)
  let i = ref t.len in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = t.times.(p) in
    if time < pt || (time = pt && seq < t.seqs.(p)) then begin
      move t ~src:p ~dst:!i;
      i := p
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.vals.(!i) <- v;
  t.len <- t.len + 1

(* Inlined: a float returned from a call that is not inlined comes back
   boxed, which would cost an allocation per dispatched event. *)
let[@inline] min_time t =
  if t.len = 0 then invalid_arg "Heap.min_time: empty heap";
  t.times.(0)

let[@inline] min_seq t =
  if t.len = 0 then invalid_arg "Heap.min_seq: empty heap";
  t.seqs.(0)

let pop_min t =
  if t.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let top = t.vals.(0) in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* Sift the last entry down from the root: move the smaller child up
       into the hole until the last entry's key is no greater. *)
    let time = t.times.(n) and seq = t.seqs.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n
             && (t.times.(r) < t.times.(l)
                || (t.times.(r) = t.times.(l) && t.seqs.(r) < t.seqs.(l)))
          then r
          else l
        in
        let ct = t.times.(c) in
        if ct < time || (ct = time && t.seqs.(c) < seq) then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    move t ~src:n ~dst:!i
  end;
  top

let iter f t =
  for i = 0 to t.len - 1 do
    f ~time:t.times.(i) ~seq:t.seqs.(i) t.vals.(i)
  done
