(* Direct-scan answers to the drill-down queries.

   Each expected answer is computed straight from a decoded trace set —
   no event database, no index file, no query evaluator — and rendered
   with [Query.render], so a session's answer can be checked byte for
   byte. The one exception is [loops], whose answer is defined by NLR:
   it is recomputed here from the raw call sequences with [Nlr.of_ids],
   independently of the index that the session loads. *)

module Event = Difftrace_trace.Event
module Symtab = Difftrace_trace.Symtab
module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set
module Nlr = Difftrace_nlr.Nlr
module Query = Difftrace_eventdb.Query

type t =
  | Count of { fn : string; thread : string option }
  | List of { fn : string; thread : string; limit : int }
  | Sites of { fn : string; thread : string }
  | Loops of { thread : string }
  | Funcs of { limit : int }
  | Diverge

let text = function
  | Count { fn; thread = None } -> "count " ^ fn
  | Count { fn; thread = Some t } -> Printf.sprintf "count %s on %s" fn t
  | List { fn; thread; limit } ->
    Printf.sprintf "list %s on %s limit %d" fn thread limit
  | Sites { fn; thread } -> Printf.sprintf "sites %s on %s" fn thread
  | Loops { thread } -> "loops on " ^ thread
  | Funcs { limit } -> Printf.sprintf "funcs limit %d" limit
  | Diverge -> "diverge"

let needs_against = function Diverge -> true | _ -> false

let label tr = Trace.label ~short:true tr

let find ts l =
  match
    Array.find_opt
      (fun tr -> label tr = l || Trace.label tr = l)
      (Trace_set.traces ts)
  with
  | Some tr -> tr
  | None -> invalid_arg ("Oracle: no thread " ^ l)

(* every call of a thread as (position, function, depth, caller), by a
   stack walk over the raw events; a return closes every frame above
   its deepest match and is dropped when nothing matches *)
let calls (tr : Trace.t) =
  let stack = ref [] and out = ref [] in
  Array.iteri
    (fun pos e ->
      match e with
      | Event.Call id ->
        let caller = match !stack with [] -> -1 | f :: _ -> f in
        out := (pos, id, List.length !stack, caller) :: !out;
        stack := id :: !stack
      | Event.Return id ->
        if List.mem id !stack then begin
          let rec pop = function
            | [] -> []
            | f :: rest -> if f = id then rest else pop rest
          in
          stack := pop !stack
        end)
    tr.Trace.events;
  List.rev !out

let calls_of sym tr fn =
  List.filter (fun (_, id, _, _) -> Symtab.name sym id = fn) (calls tr)

let caller_name sym c = if c < 0 then "-" else Symtab.name sym c

let count sym ts fn thread =
  let trs =
    match thread with
    | None -> Array.to_list (Trace_set.traces ts)
    | Some l -> [ find ts l ]
  in
  let total =
    List.fold_left (fun acc tr -> acc + List.length (calls_of sym tr fn)) 0 trs
  in
  let suffix = match thread with None -> "" | Some l -> " on " ^ l in
  Query.R_count { subject = fn ^ suffix; total }

let list sym ts fn thread limit =
  let tr = find ts thread in
  let all =
    List.map
      (fun (pos, _, depth, caller) ->
        { Query.h_thread = label tr;
          h_pos = pos;
          h_depth = depth;
          h_caller = caller_name sym caller })
      (calls_of sym tr fn)
  in
  Query.R_list
    { subject = fn ^ " on " ^ thread;
      total = List.length all;
      hits = List.filteri (fun i _ -> i < limit) all }

let sites sym ts fn thread =
  let tr = find ts thread in
  let order = ref [] and tbl = Hashtbl.create 8 in
  List.iter
    (fun (pos, _, _, caller) ->
      let c = caller_name sym caller in
      match Hashtbl.find_opt tbl c with
      | Some (n, first) -> Hashtbl.replace tbl c (n + 1, first)
      | None ->
        Hashtbl.replace tbl c (1, pos);
        order := c :: !order)
    (calls_of sym tr fn);
  let rows =
    List.rev_map
      (fun c ->
        let n, first = Hashtbl.find tbl c in
        (label tr, c, n, first))
      !order
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare a b)
  in
  Query.R_sites { subject = fn ^ " on " ^ thread; rows }

let funcs sym ts limit =
  let n = Symtab.size sym in
  let calls = Array.make n 0 and threads = Array.make n 0 in
  Array.iter
    (fun (tr : Trace.t) ->
      let seen = Array.make n false in
      Array.iter
        (function
          | Event.Call id ->
            calls.(id) <- calls.(id) + 1;
            if not seen.(id) then begin
              seen.(id) <- true;
              threads.(id) <- threads.(id) + 1
            end
          | Event.Return _ -> ())
        tr.Trace.events)
    (Trace_set.traces ts);
  let rows =
    List.init n (fun id -> (Symtab.name sym id, calls.(id), threads.(id)))
    |> List.filter (fun (_, c, _) -> c > 0)
    |> List.sort (fun (na, ca, _) (nb, cb, _) ->
           if ca <> cb then compare cb ca else compare na nb)
  in
  Query.R_funcs
    { total = List.length rows; rows = List.filteri (fun i _ -> i < limit) rows }

(* the first event position where two streams disagree by kind or by
   function name; a strict prefix diverges at its own length *)
let divergence syma (a : Event.t array) symb (b : Event.t array) =
  let same ea eb =
    match (ea, eb) with
    | Event.Call x, Event.Call y | Event.Return x, Event.Return y ->
      Symtab.name syma x = Symtab.name symb y
    | _ -> false
  in
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i < n then if same a.(i) b.(i) then go (i + 1) else Some i
    else if Array.length a = Array.length b then None
    else Some n
  in
  go 0

let diverge normal faulty =
  let syma = Trace_set.symtab normal and symb = Trace_set.symtab faulty in
  let by_label ts =
    Array.to_list (Array.map (fun tr -> (label tr, tr)) (Trace_set.traces ts))
  in
  let la = by_label normal and lb = by_label faulty in
  let labels =
    List.map fst la
    @ List.filter (fun l -> not (List.mem_assoc l la)) (List.map fst lb)
  in
  let first = ref None in
  let rows =
    List.filter_map
      (fun l ->
        match (List.assoc_opt l la, List.assoc_opt l lb) with
        | Some ta, Some tb -> (
          match divergence syma ta.Trace.events symb tb.Trace.events with
          | None -> None
          | Some p ->
            let side sym (tr : Trace.t) =
              if p < Array.length tr.Trace.events then
                Event.to_string sym tr.Trace.events.(p)
              else "end of trace"
            in
            (match !first with
            | Some (_, best) when best <= p -> ()
            | _ -> first := Some (l, p));
            Some (l, string_of_int p, side syma ta, side symb tb))
        | Some ta, None ->
          Some
            ( l,
              "-",
              Printf.sprintf "%d events" (Array.length ta.Trace.events),
              "missing thread" )
        | None, Some tb ->
          Some
            ( l,
              "-",
              "missing thread",
              Printf.sprintf "%d events" (Array.length tb.Trace.events) )
        | None, None -> None)
      labels
  in
  Query.R_diverge { compared = List.length labels; first = !first; rows }

(* NLR loop instances at every nesting level, as (body, count, start
   position, stop position) in pre-order, with the body IDs of one
   table shared by every thread in (pid, tid) order *)
let loops sym ts thread =
  let table = Nlr.Loop_table.create () in
  let target = find ts thread in
  let rec summarize = function
    | [] -> invalid_arg "Oracle.loops"
    | (tr : Trace.t) :: rest ->
      let local = Nlr.Loop_table.create () in
      let nlr =
        Nlr.reintern ~from:local ~into:table
          (Nlr.of_ids ~table:local (Trace.call_ids tr))
      in
      if tr == target then nlr else summarize rest
  in
  let nlr = summarize (Array.to_list (Trace_set.traces ts)) in
  let call_pos =
    Array.of_list (List.map (fun (p, _, _, _) -> p) (calls target))
  in
  let n_events = Array.length target.Trace.events in
  let pos c = if c < Array.length call_pos then call_pos.(c) else n_events in
  let rec expanded body =
    Array.fold_left
      (fun acc -> function
        | Nlr.Sym _ -> acc + 1
        | Nlr.Loop { body; count } -> acc + (count * expanded body))
      0
      (Nlr.Loop_table.body table body)
  in
  let spans = ref [] in
  let rec walk elems cursor =
    Array.fold_left
      (fun c -> function
        | Nlr.Sym _ -> c + 1
        | Nlr.Loop { body; count } ->
          let blen = expanded body in
          spans := (body, count, pos c) :: !spans;
          for i = 0 to count - 1 do
            ignore (walk (Nlr.Loop_table.body table body) (c + (i * blen)))
          done;
          c + (count * blen))
      cursor elems
  in
  ignore (walk nlr.Nlr.elems 0);
  let spans = List.rev !spans in
  (* one row per body; rows ordered by each body's last instance *)
  let last = Hashtbl.create 16 in
  List.iteri (fun i (body, _, _) -> Hashtbl.replace last body i) spans;
  let bodies =
    Hashtbl.fold (fun body i acc -> (i, body) :: acc) last []
    |> List.sort compare |> List.map snd
  in
  let rows =
    List.map
      (fun body ->
        let mine = List.filter (fun (b, _, _) -> b = body) spans in
        ( Nlr.Loop_table.label body,
          label target,
          List.length mine,
          List.fold_left (fun acc (_, c, _) -> acc + c) 0 mine,
          List.fold_left (fun acc (_, _, s) -> min acc s) max_int mine,
          Nlr.body_to_string ~table sym body ))
      bodies
  in
  Query.R_loops { rows }

(* [expected q ~normal ~faulty] — the rendered answer to [q] over the
   normal run ([diverge] compares it against the faulty one) *)
let expected q ~normal ~faulty =
  let sym = Trace_set.symtab normal in
  Query.render
    (match q with
    | Count { fn; thread } -> count sym normal fn thread
    | List { fn; thread; limit } -> list sym normal fn thread limit
    | Sites { fn; thread } -> sites sym normal fn thread
    | Loops { thread } -> loops sym normal thread
    | Funcs { limit } -> funcs sym normal limit
    | Diverge -> diverge normal faulty)
