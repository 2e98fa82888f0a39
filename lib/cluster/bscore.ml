(* Counts the n leaf pairs rather than a dense kx*ky contingency matrix.
   A counting sort groups the leaves by their [x] cluster; within one
   group, [cell] counts each [y] cluster, so the group's contingency
   cells are tallied in O(group size) and then cleared. Tk, the sum of
   squared cell counts, grows by 2c+1 whenever a cell goes from c to
   c+1; Pk and Qk come from the row and column counts. The integers are
   the dense matrix's exactly, so B_k is bit-identical. *)
let bk_of_assignments x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Bscore: leaf count mismatch";
  if n = 0 then invalid_arg "Bscore: empty clusterings";
  let kx = 1 + Array.fold_left max 0 x and ky = 1 + Array.fold_left max 0 y in
  let rows = Array.make kx 0 and cols = Array.make ky 0 in
  for i = 0 to n - 1 do
    rows.(x.(i)) <- rows.(x.(i)) + 1;
    cols.(y.(i)) <- cols.(y.(i)) + 1
  done;
  (* [by_row.(start.(a) .. start.(a+1)-1)] are the [y]s of row [a] *)
  let start = Array.make (kx + 1) 0 in
  for a = 0 to kx - 1 do
    start.(a + 1) <- start.(a) + rows.(a)
  done;
  let next = Array.sub start 0 kx and by_row = Array.make n 0 in
  for i = 0 to n - 1 do
    by_row.(next.(x.(i))) <- y.(i);
    next.(x.(i)) <- next.(x.(i)) + 1
  done;
  let cell = Array.make ky 0 and tk = ref 0 in
  for a = 0 to kx - 1 do
    for j = start.(a) to start.(a + 1) - 1 do
      let b = by_row.(j) in
      tk := !tk + (2 * cell.(b)) + 1;
      cell.(b) <- cell.(b) + 1
    done;
    for j = start.(a) to start.(a + 1) - 1 do
      cell.(by_row.(j)) <- 0
    done
  done;
  let sum_sq = Array.fold_left (fun acc c -> acc + (c * c)) 0 in
  let tk = !tk - n and pk = sum_sq rows - n and qk = sum_sq cols - n in
  if pk = 0 || qk = 0 then 1.0
  else float_of_int tk /. sqrt (float_of_int pk *. float_of_int qk)

let bk a b ~k =
  if a.Linkage.n <> b.Linkage.n then invalid_arg "Bscore.bk: leaf count mismatch";
  bk_of_assignments (Linkage.cut_k a k) (Linkage.cut_k b k)

(* [cuts t] returns a function that applies [t]'s next merge and returns
   every leaf's cluster root: called m times, it gives the cut at n-m
   clusters. One union-find (with path compression) serves every level,
   where [Linkage.cut_k] would rebuild one per level. Roots label the
   clusters instead of first-appearance numbers, which B_k does not
   depend on. *)
let cuts (t : Linkage.t) =
  let n = t.Linkage.n in
  let parent = Array.init (2 * n) Fun.id in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      let r = find p in
      parent.(i) <- r;
      r
    end
  in
  let step = ref 0 in
  fun () ->
    if !step < Array.length t.Linkage.merges then begin
      let mg = t.Linkage.merges.(!step) in
      let c = n + !step in
      parent.(find mg.Linkage.a) <- c;
      parent.(find mg.Linkage.b) <- c
    end;
    incr step;
    Array.init n find

let series a b =
  let n = a.Linkage.n in
  if n <= 2 then []
  else begin
    if b.Linkage.n <> n then invalid_arg "Bscore.bk: leaf count mismatch";
    let next_a = cuts a and next_b = cuts b in
    let bks = Array.make (n + 1) 0.0 in
    for k = n - 1 downto 2 do
      bks.(k) <- bk_of_assignments (next_a ()) (next_b ())
    done;
    List.init (n - 2) (fun i -> (i + 2, bks.(i + 2)))
  end

let score a b =
  match series a b with
  | [] -> 1.0
  | s -> List.fold_left (fun acc (_, v) -> acc +. v) 0.0 s /. float_of_int (List.length s)
