(* Table-driven CRC-32 (reflected polynomial 0xEDB88320). The running
   value is kept pre- and post-conditioned with the customary all-ones
   mask folded into [init]/[finish], so [update] is a pure table walk. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let mask = 0xFFFFFFFF
let init = mask

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || len > String.length s - pos then
    invalid_arg "Crc32.update: out-of-bounds range";
  let t = Lazy.force table in
  let c = ref (crc land mask) in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c

let finish crc = crc lxor mask land mask
let string s = finish (update init s ~pos:0 ~len:(String.length s))

let to_le_bytes d =
  String.init 4 (fun i -> Char.chr ((d lsr (8 * i)) land 0xff))

let of_le_bytes s pos =
  if pos < 0 || pos + 4 > String.length s then
    invalid_arg "Crc32.of_le_bytes: truncated";
  let b i = Char.code s.[pos + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
