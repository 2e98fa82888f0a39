type t = Call of int | Return of int

let id = function Call i | Return i -> i
let is_call = function Call _ -> true | Return _ -> false
let is_return e = not (is_call e)

let equal a b =
  match (a, b) with
  | Call x, Call y | Return x, Return y -> x = y
  | Call _, Return _ | Return _, Call _ -> false

let to_string symtab = function
  | Call i -> Symtab.name symtab i
  | Return i -> "ret " ^ Symtab.name symtab i

let encode = function Call i -> i lsl 1 | Return i -> (i lsl 1) lor 1
let make n = if n land 1 = 0 then Call (n lsr 1) else Return (n lsr 1)

(* Events are immutable, so every decode of a small code returns one
   shared value instead of a fresh block. The table is built once and
   only read, so domains may share it. *)
let shared = Array.init 4096 make
let decode n = if n >= 0 && n < Array.length shared then shared.(n) else make n
