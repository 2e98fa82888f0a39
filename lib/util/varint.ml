(* Loops rather than local recursive functions: a [let rec] that
   captures [buf] or [s] is a closure allocated on every call, and these
   run once per event on every codec path. *)

let write buf n =
  if n < 0 then invalid_arg "Varint.write: negative";
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

type cursor = { s : string; mutable pos : int; stop : int }

let cursor ?(pos = 0) ?stop s =
  let stop = Option.value stop ~default:(String.length s) in
  if stop > String.length s then invalid_arg "Varint.cursor: stop past end";
  { s; pos; stop }

let remaining c = c.stop - c.pos

let next c =
  let s = c.s in
  let stop = c.stop in
  let pos = ref c.pos and shift = ref 0 and acc = ref 0 and more = ref true in
  while !more do
    if !pos >= stop then invalid_arg "Varint.read: truncated input";
    (* [write] never emits more than 9 bytes (shift 56 holds bits
       56..62 of a 63-bit int); past that — or once a continuation run
       would set the sign bit — [lsl] silently wraps, so reject. *)
    if !shift > 56 then invalid_arg "Varint.read: overflow";
    let b = Char.code s.[!pos] in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if !acc < 0 then invalid_arg "Varint.read: overflow";
    incr pos;
    if b land 0x80 = 0 then more := false else shift := !shift + 7
  done;
  c.pos <- !pos;
  !acc

let read s pos =
  let c = cursor ~pos s in
  let v = next c in
  (v, c.pos)

let size n =
  if n < 0 then invalid_arg "Varint.size: negative";
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let write_list buf l =
  write buf (List.length l);
  List.iter (write buf) l

let read_list s pos =
  let c = cursor ~pos s in
  let n = next c in
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (next c :: acc) in
  let l = go 0 [] in
  (l, c.pos)
