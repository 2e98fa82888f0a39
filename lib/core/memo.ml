module Nlr = Difftrace_nlr.Nlr
module Telemetry = Difftrace_obs.Telemetry

(* process-wide telemetry view of every memo instance's traffic *)
let c_hits = Telemetry.Counter.make "memo.hits"
let c_misses = Telemetry.Counter.make "memo.misses"

type stats = { hits : int; misses : int }

type key = string

type t = {
  symtab : Difftrace_trace.Symtab.t;
  loop_table : Nlr.Loop_table.t;
  cache : (key, Nlr.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () =
  { symtab = Difftrace_trace.Symtab.create ();
    loop_table = Nlr.Loop_table.create ();
    cache = Hashtbl.create 64;
    hits = 0;
    misses = 0 }

let symtab t = t.symtab
let loop_table t = t.loop_table

(* [add_int buf n] appends the bytes of [string_of_int n] without
   building that string: the key's digest must not change, because
   persisted store entries are filed under it. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.chr (Char.code '0' + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n else Buffer.add_string buf (string_of_int n)

let key ~ids ~k ~repeats =
  let buf = Buffer.create ((4 * Array.length ids) + 16) in
  add_int buf k;
  Buffer.add_char buf ';';
  add_int buf repeats;
  Array.iter
    (fun id ->
      Buffer.add_char buf ';';
      add_int buf id)
    ids;
  Digest.string (Buffer.contents buf)

let find t key =
  match Hashtbl.find_opt t.cache key with
  | Some _ as hit ->
    t.hits <- t.hits + 1;
    Telemetry.Counter.incr c_hits;
    hit
  | None ->
    t.misses <- t.misses + 1;
    Telemetry.Counter.incr c_misses;
    None

let add t key nlr = Hashtbl.replace t.cache key nlr

(* persistence hooks for the analysis store: adopt a disk entry
   without disturbing the hit/miss counters, and enumerate the cache
   for rewriting. Keys are exposed as their raw digest bytes. *)
let restore t ~key nlr = Hashtbl.replace t.cache key nlr

let mem t ~key = Hashtbl.mem t.cache key

let fold t ~init ~f = Hashtbl.fold (fun key nlr acc -> f key nlr acc) t.cache init

let length t = Hashtbl.length t.cache

let stats t = { hits = t.hits; misses = t.misses }

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
