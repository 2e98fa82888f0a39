open Difftrace_util

type elem = Sym of int | Loop of { body : int; count : int }

(* Monomorphic: this is the kernel's innermost test, and polymorphic
   [=] would call into the runtime's generic comparison. *)
let elem_equal (a : elem) (b : elem) =
  match a, b with
  | Sym x, Sym y -> x = y
  | Loop a, Loop b -> a.body = b.body && a.count = b.count
  | Sym _, Loop _ | Loop _, Sym _ -> false

module Loop_table = struct
  (* Bodies are elem arrays; [by_body] interns them structurally so the
     same body found in any trace of the execution gets the same ID. *)
  type t = { bodies : elem array Vec.t; by_body : (elem list, int) Hashtbl.t }

  let create () = { bodies = Vec.create (); by_body = Hashtbl.create 64 }
  let size t = Vec.length t.bodies

  let body t id =
    if id < 0 || id >= Vec.length t.bodies then invalid_arg "Loop_table.body";
    Vec.get t.bodies id

  let intern t b =
    let key = Array.to_list b in
    match Hashtbl.find_opt t.by_body key with
    | Some id -> id
    | None ->
      let id = Vec.length t.bodies in
      Vec.push t.bodies (Array.copy b);
      Hashtbl.add t.by_body key id;
      id

  let label id = "L" ^ string_of_int id
end

type t = { elems : elem array; input_length : int }

(* The reduction stack is [stack.(0 .. len-1)], top last. *)

(* [body_matches bd stack top i] — [bd.(i ..)] equals [stack.(top + i ..)]. *)
let rec body_matches bd stack top i =
  i = Array.length bd
  || (elem_equal bd.(i) stack.(top + i) && body_matches bd stack top (i + 1))

(* [windows_equal stack x y b] — the length-[b] windows at [x] and [y]
   are equal, compared from the left up to the first mismatch. *)
let rec windows_equal stack x y b =
  b = 0
  || (elem_equal stack.(x) stack.(y) && windows_equal stack (x + 1) (y + 1) (b - 1))

(* [repeated stack top b w] — windows [1 .. w] below the top window
   (which starts at [top]) all equal it. *)
let rec repeated stack top b w =
  w = 0
  || (windows_equal stack top (top - (w * b)) b && repeated stack top b (w - 1))

(* One reduction step over the top of the stack, trying window lengths
   [b .. k]; returns the new stack length, which is [len] exactly when
   no rule fired (both rules shrink the stack). The two rules, from
   Procedure 1, are tried in this order for each b:
   - extension: a loop sits at depth b+1 and the top b elements are
     isomorphic to its body -> absorb them, incrementing the count;
   - creation: the top [repeats] windows of length b are pairwise
     isomorphic -> replace them by a fresh loop element. *)
let rec reduce_step table k repeats stack len b =
  if b > k then len
  else
    let extended =
      len > b
      &&
      match stack.(len - 1 - b) with
      | Loop { body; count } ->
        let bd = Loop_table.body table body in
        Array.length bd = b
        && body_matches bd stack (len - b) 0
        && begin
          stack.(len - 1 - b) <- Loop { body; count = count + 1 };
          true
        end
      | Sym _ -> false
    in
    if extended then len - b
    else if len >= repeats * b && repeated stack (len - b) b (repeats - 1) then begin
      let id = Loop_table.intern table (Array.sub stack (len - b) b) in
      let base = len - (repeats * b) in
      stack.(base) <- Loop { body = id; count = repeats };
      base + 1
    end
    else reduce_step table k repeats stack len (b + 1)

let rec reduce table k repeats stack len =
  let len' = reduce_step table k repeats stack len 1 in
  if len' = len then len else reduce table k repeats stack len'

(* One reduction stack per domain, reused across calls: it is as long
   as the longest input so far, and allocating it afresh for every
   trace churns the major heap. *)
let stack_key = Domain.DLS.new_key (fun () -> [||])

let of_ids ~table ?(k = 10) ?(repeats = 2) ids =
  if k < 1 then invalid_arg "Nlr.of_ids: k must be >= 1";
  if repeats < 2 then invalid_arg "Nlr.of_ids: repeats must be >= 2";
  let n = Array.length ids in
  let stack =
    let s = Domain.DLS.get stack_key in
    if Array.length s >= n then s
    else begin
      let s = Array.make (max n (2 * Array.length s)) (Sym 0) in
      Domain.DLS.set stack_key s;
      s
    end
  in
  let len = ref 0 in
  for i = 0 to n - 1 do
    stack.(!len) <- Sym ids.(i);
    len := reduce table k repeats stack (!len + 1)
  done;
  let elems = Array.sub stack 0 !len in
  (* drop the stale elements, so the idle stack keeps nothing alive *)
  Array.fill stack 0 n (Sym 0);
  { elems; input_length = n }

let length t = Array.length t.elems

let reintern ~from ~into t =
  let n = Loop_table.size from in
  let map = Array.make n (-1) in
  let remap_elem = function
    | Sym _ as e -> e
    | Loop { body; count } -> Loop { body = map.(body); count }
  in
  (* A body only references loops created before it, so ascending order
     guarantees [map] is filled for every id a body mentions — and it
     replays [from]'s intern calls in their original order, which is
     what keeps shared-table ids identical to a fully sequential run. *)
  for id = 0 to n - 1 do
    map.(id) <- Loop_table.intern into (Array.map remap_elem (Loop_table.body from id))
  done;
  { t with elems = Array.map remap_elem t.elems }

let expand ~table t =
  let out = Vec.with_capacity t.input_length in
  let rec emit = function
    | Sym id -> Vec.push out id
    | Loop { body; count } ->
      let bd = Loop_table.body table body in
      for _ = 1 to count do
        Array.iter emit bd
      done
  in
  Array.iter emit t.elems;
  Vec.to_array out

let reduction_factor t =
  if Array.length t.elems = 0 then 1.0
  else float_of_int t.input_length /. float_of_int (Array.length t.elems)

let token symtab = function
  | Sym id -> Difftrace_trace.Symtab.name symtab id
  | Loop { body; _ } -> Loop_table.label body

let multiplicity = function Sym _ -> 1 | Loop { count; _ } -> count

let elem_to_string symtab = function
  | Sym id -> Difftrace_trace.Symtab.name symtab id
  | Loop { body; count } -> Printf.sprintf "%s^%d" (Loop_table.label body) count

let to_strings symtab t = Array.to_list (Array.map (elem_to_string symtab) t.elems)

let body_to_string ~table symtab id =
  let bd = Loop_table.body table id in
  "[" ^ String.concat "-" (Array.to_list (Array.map (elem_to_string symtab) bd)) ^ "]"

(* {2 Element codec} *)

let write_elems buf elems =
  Varint.write buf (Array.length elems);
  Array.iter
    (function
      | Sym id ->
        Varint.write buf 0;
        Varint.write buf id
      | Loop { body; count } ->
        Varint.write buf 1;
        Varint.write buf body;
        Varint.write buf count)
    elems

let read_elem ~n_syms ~n_bodies c =
  match Varint.next c with
  | 0 ->
    let id = Varint.next c in
    if id >= n_syms then
      Framing.bad "symbol id %d out of range (%d known)" id n_syms;
    Sym id
  | 1 ->
    let body = Varint.next c in
    let count = Varint.next c in
    if body >= n_bodies then
      Framing.bad "loop body %d out of range (%d known)" body n_bodies;
    Loop { body; count }
  | tag -> Framing.bad "unknown element tag %d" tag

let read_elems ~n_syms ~n_bodies c =
  let n = Varint.next c in
  (* an element is at least two varint bytes — a count the remaining
     payload cannot hold is corruption, not a huge allocation *)
  if n * 2 > Varint.remaining c then
    Framing.bad "element count %d overruns record" n;
  Array.init n (fun _ -> read_elem ~n_syms ~n_bodies c)
