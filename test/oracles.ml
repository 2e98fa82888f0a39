(* Test-only oracles: the straightforward implementations that the
   library's hot paths replaced, kept verbatim so that qcheck properties
   can prove the rewrites byte-identical. *)

open Difftrace_util
open Difftrace_trace
module Linkage = Difftrace_cluster.Linkage

(* NLR with a bounds-checked [Vec] stack, polymorphic element equality
   and an exception per changed step. *)
module Nlr = struct
  open Difftrace_nlr.Nlr

  let elem_equal (a : elem) (b : elem) = a = b

  let reduce_step ~table ~k ~repeats stack =
    let len = Vec.length stack in
    let exception Changed in
    try
      for b = 1 to k do
        (* extension *)
        (if len >= b + 1 then
           match Vec.peek stack b with
           | Loop { body; count } ->
             let bd = Loop_table.body table body in
             if
               Array.length bd = b
               && (let ok = ref true in
                   for i = 0 to b - 1 do
                     if not (elem_equal bd.(i) (Vec.peek stack (b - 1 - i))) then
                       ok := false
                   done;
                   !ok)
             then begin
               Vec.truncate stack (len - b - 1);
               Vec.push stack (Loop { body; count = count + 1 });
               raise Changed
             end
           | Sym _ -> ());
        (* creation *)
        if len >= repeats * b then begin
          let window w i = Vec.get stack (len - ((w + 1) * b) + i) in
          let all_equal = ref true in
          for w = 1 to repeats - 1 do
            for i = 0 to b - 1 do
              if not (elem_equal (window 0 i) (window w i)) then all_equal := false
            done
          done;
          if !all_equal then begin
            let body = Array.init b (fun i -> window 0 i) in
            let id = Loop_table.intern table body in
            Vec.truncate stack (len - (repeats * b));
            Vec.push stack (Loop { body = id; count = repeats });
            raise Changed
          end
        end
      done;
      false
    with Changed -> true

  let of_ids ~table ?(k = 10) ?(repeats = 2) ids =
    if k < 1 then invalid_arg "Nlr.of_ids: k must be >= 1";
    if repeats < 2 then invalid_arg "Nlr.of_ids: repeats must be >= 2";
    let stack = Vec.with_capacity (Array.length ids) in
    Array.iter
      (fun id ->
        Vec.push stack (Sym id);
        while reduce_step ~table ~k ~repeats stack do
          ()
        done)
      ids;
    { elems = Vec.to_array stack; input_length = Array.length ids }
end

(* B-score over a dense kx*ky contingency matrix per cut level. *)
module Bscore = struct
  let bk_of_assignments x y =
    let n = Array.length x in
    if Array.length y <> n then invalid_arg "Bscore: leaf count mismatch";
    if n = 0 then invalid_arg "Bscore: empty clusterings";
    let kx = 1 + Array.fold_left max 0 x and ky = 1 + Array.fold_left max 0 y in
    let mm = Array.make_matrix kx ky 0 in
    for i = 0 to n - 1 do
      mm.(x.(i)).(y.(i)) <- mm.(x.(i)).(y.(i)) + 1
    done;
    let tk = ref 0 and pk = ref 0 and qk = ref 0 in
    for a = 0 to kx - 1 do
      let row = ref 0 in
      for b = 0 to ky - 1 do
        tk := !tk + (mm.(a).(b) * mm.(a).(b));
        row := !row + mm.(a).(b)
      done;
      pk := !pk + (!row * !row)
    done;
    for b = 0 to ky - 1 do
      let col = ref 0 in
      for a = 0 to kx - 1 do
        col := !col + mm.(a).(b)
      done;
      qk := !qk + (!col * !col)
    done;
    let tk = !tk - n and pk = !pk - n and qk = !qk - n in
    if pk = 0 || qk = 0 then 1.0
    else float_of_int tk /. sqrt (float_of_int pk *. float_of_int qk)

  let bk a b ~k =
    if a.Linkage.n <> b.Linkage.n then invalid_arg "Bscore.bk: leaf count mismatch";
    bk_of_assignments (Linkage.cut_k a k) (Linkage.cut_k b k)

  let series a b =
    let n = a.Linkage.n in
    List.init (max 0 (n - 2)) (fun i ->
        let k = i + 2 in
        (k, bk a b ~k))

  let score a b =
    match series a b with
    | [] -> 1.0
    | s -> List.fold_left (fun acc (_, v) -> acc +. v) 0.0 s /. float_of_int (List.length s)
end

(* Call-ID remapping that interns the callee's name on every event. *)
let remap_calls ~shared ~own (tr : Trace.t) =
  Array.map
    (fun id -> Symtab.intern shared (Symtab.name own id))
    (Trace.call_ids tr)

(* The memo key built from one [string_of_int] string per ID. *)
let memo_key ~ids ~k ~repeats =
  let buf = Buffer.create ((4 * Array.length ids) + 16) in
  Buffer.add_string buf (string_of_int k);
  Buffer.add_char buf ';';
  Buffer.add_string buf (string_of_int repeats);
  Array.iter
    (fun id ->
      Buffer.add_char buf ';';
      Buffer.add_string buf (string_of_int id))
    ids;
  Digest.string (Buffer.contents buf)
