(* The benchmark's operations rebuilt from the public entry points of
   each lib/ layer, in the order the pipeline calls them, with a span
   around every layer call. This is the traced run's view of an
   operation; its results must equal the session's (see bench.ml). *)

module Archive = Difftrace_parlot.Archive
module Symtab = Difftrace_trace.Symtab
module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set
module Filter = Difftrace_filter.Filter
module Nlr = Difftrace_nlr.Nlr
module Attributes = Difftrace_fca.Attributes
module Context = Difftrace_fca.Context
module Jsm = Difftrace_cluster.Jsm
module Linkage = Difftrace_cluster.Linkage
module Bscore = Difftrace_cluster.Bscore
module Diffnlr = Difftrace_diff.Diffnlr
module Eventdb = Difftrace_eventdb.Eventdb
module Query = Difftrace_eventdb.Query
module Config = Difftrace_core.Config
module Engine = Difftrace_core.Engine
module Memo = Difftrace_core.Memo
module Store = Difftrace_core.Store

let span = Spans.span

(* the layer each span name is attributed to; an operation's root span
   (and anything unnamed here) is unattributed time *)
let layer_of = function
  | "Archive.load" -> "parlot.load"
  | "Archive.save" -> "parlot.save"
  | "Filter.apply_set" -> "filter.apply"
  | "Symtab.intern" -> "trace.remap"
  | "Nlr.of_ids" | "Nlr.reintern" -> "nlr.summarize"
  | "Memo.key" -> "core.memo_key"
  | "Memo.find" | "Memo.add" -> "core.memo_find"
  | "Store.load" -> "core.store_load"
  | "Store.flush" -> "core.store_flush"
  | "Store.jsm" -> "core.store_jsm"
  | "Attributes.of_nlr" -> "fca.attributes"
  | "Context.of_attr_sets" -> "fca.context"
  | "Jsm.compute" | "Jsm.align" | "Jsm.diff" | "Jsm.to_distance"
  | "Jsm.row_change" ->
    "cluster.jsm"
  | "Linkage.cluster" -> "cluster.linkage"
  | "Bscore.score" -> "cluster.bscore"
  | "Diffnlr.make" -> "diff.diffnlr"
  | "Eventdb.digest" -> "eventdb.digest"
  | "Eventdb.build" -> "eventdb.build"
  | "Eventdb.save" -> "eventdb.save"
  | "Eventdb.load" -> "eventdb.load"
  | "Eventdb.divergence_note" -> "eventdb.divergence"
  | "Query.parse" | "Query.eval" -> "eventdb.eval"
  | "Lulesh.run" -> "simulator.run"
  | _ -> "unattributed"

(* volumes behind the traced run's ratios, summed over its operations *)
type volumes = {
  mutable events_in : int;  (** events entering the filter *)
  mutable events_kept : int;
  mutable calls_in : int;  (** filtered calls entering NLR *)
  mutable elems_out : int;  (** NLR elements out *)
}

let volumes = { events_in = 0; events_kept = 0; calls_in = 0; elems_out = 0 }

let load dir =
  span "Archive.load" @@ fun () ->
  match Archive.load ~dir () with
  | Ok l -> l.Archive.set
  | Error e -> failwith (Archive.error_to_string e)

type analysis = {
  symtab : Symtab.t;
  labels : string array;
  nlrs : (Nlr.t * bool) array;
  jsm : Jsm.t;
}

(* Pipeline.analyze with a memo (and optionally a store), layer by
   layer *)
let analyze ~memo ?store (config : Config.t) ts =
  let k = config.Config.k and repeats = config.Config.repeats in
  let filtered =
    span "Filter.apply_set" (fun () -> Filter.apply_set config.Config.filter ts)
  in
  volumes.events_in <- volumes.events_in + Trace_set.total_events ts;
  volumes.events_kept <- volumes.events_kept + Trace_set.total_events filtered;
  let shared = Memo.symtab memo and table = Memo.loop_table memo in
  let own = Trace_set.symtab filtered in
  let traces = Trace_set.traces filtered in
  let short = Array.for_all (fun tr -> tr.Trace.tid = 0) traces in
  let labels = Array.map (fun tr -> Trace.label ~short tr) traces in
  let idss =
    span "Symtab.intern" @@ fun () ->
    Array.map
      (fun tr ->
        Array.map
          (fun id -> Symtab.intern shared (Symtab.name own id))
          (Trace.call_ids tr))
      traces
  in
  let keys =
    span "Memo.key" (fun () ->
        Array.map (fun ids -> Memo.key ~ids ~k ~repeats) idss)
  in
  let cached = span "Memo.find" (fun () -> Array.map (Memo.find memo) keys) in
  let fresh =
    span "Nlr.of_ids" @@ fun () ->
    Array.mapi
      (fun i ids ->
        match cached.(i) with
        | Some _ -> None
        | None ->
          let local = Nlr.Loop_table.create () in
          Some (local, Nlr.of_ids ~table:local ~k ~repeats ids))
      idss
  in
  let summaries =
    span "Nlr.reintern" @@ fun () ->
    Array.mapi
      (fun i -> function
        | None -> Option.get cached.(i)
        | Some (local, nlr) -> Nlr.reintern ~from:local ~into:table nlr)
      fresh
  in
  span "Memo.add" (fun () ->
      Array.iteri
        (fun i f -> if f <> None then Memo.add memo keys.(i) summaries.(i))
        fresh);
  Array.iteri
    (fun i ids ->
      volumes.calls_in <- volumes.calls_in + Array.length ids;
      volumes.elems_out <- volumes.elems_out + Nlr.length summaries.(i))
    idss;
  let rows =
    span "Attributes.of_nlr" @@ fun () ->
    Array.to_list
      (Array.mapi
         (fun i nlr -> (labels.(i), Attributes.of_nlr config.Config.attrs shared nlr))
         summaries)
  in
  let context = span "Context.of_attr_sets" (fun () -> Context.of_attr_sets rows) in
  let init = Engine.init config.Config.engine in
  let jsm =
    match store with
    | Some st -> span "Store.jsm" (fun () -> Store.jsm st ~config ~init context)
    | None -> span "Jsm.compute" (fun () -> Jsm.compute ~init context)
  in
  { symtab = shared;
    labels;
    nlrs = Array.mapi (fun i nlr -> (nlr, traces.(i).Trace.truncated)) summaries;
    jsm }

type verdict = { bscore : float; suspects : (string * float) array }

(* Pipeline.compare_runs over two archives, plus the top suspect's
   diffNLR and event-DB footer that the session renders *)
let compare ~memo ?store (config : Config.t) ~normal_dir ~faulty_dir =
  let normal = load normal_dir in
  let faulty = load faulty_dir in
  let a_n = analyze ~memo ?store config normal in
  let a_f = analyze ~memo ?store config faulty in
  let jn, jf = span "Jsm.align" (fun () -> Jsm.align a_n.jsm a_f.jsm) in
  let jsm_d = span "Jsm.diff" (fun () -> Jsm.diff a_n.jsm a_f.jsm) in
  let bscore =
    if Jsm.size jsm_d < 2 then 1.0
    else
      let meth = config.Config.linkage in
      let tree j =
        let dist = span "Jsm.to_distance" (fun () -> Jsm.rows (Jsm.to_distance j)) in
        span "Linkage.cluster" (fun () -> Linkage.cluster meth dist)
      in
      let dn = tree jn in
      let df = tree jf in
      span "Bscore.score" (fun () -> Bscore.score dn df)
  in
  let suspects =
    span "Jsm.row_change" (fun () ->
        Array.mapi (fun i l -> (l, Jsm.row_change jsm_d i)) jsm_d.Jsm.labels)
  in
  Array.sort (fun (_, a) (_, b) -> Float.compare b a) suspects;
  (if suspects <> [||] then
     let target = fst suspects.(0) in
     let nlr_of a =
       let rec go i = if a.labels.(i) = target then a.nlrs.(i) else go (i + 1) in
       go 0
     in
     let d =
       span "Diffnlr.make" (fun () ->
           Diffnlr.make a_n.symtab ~normal:(nlr_of a_n) ~faulty:(nlr_of a_f))
     in
     let note =
       span "Eventdb.divergence_note" (fun () ->
           Eventdb.divergence_note ~normal ~faulty ~label:target)
     in
     ignore
       (Diffnlr.render ~title:(Printf.sprintf "diffNLR(%s)" target) d
        ^ Option.value ~default:"" note));
  { bscore; suspects }

(* Eventdb.open_: load the persisted index, else build and save it *)
let open_db ~edb_dir ts =
  let digest = span "Eventdb.digest" (fun () -> Eventdb.digest ts) in
  match span "Eventdb.load" (fun () -> Eventdb.load ~dir:edb_dir ~digest) with
  | Ok db -> db
  | Error _ ->
    let db = span "Eventdb.build" (fun () -> Eventdb.build ts) in
    (match span "Eventdb.save" (fun () -> Eventdb.save ~dir:edb_dir db) with
    | Ok () -> ()
    | Error m -> failwith m);
    db

let eval ~edb_dir text ~source ?against () =
  let q =
    match span "Query.parse" (fun () -> Query.parse text) with
    | Ok q -> q
    | Error m -> failwith m
  in
  let db = open_db ~edb_dir (source ()) in
  let against = Option.map (fun a -> open_db ~edb_dir (a ())) against in
  match span "Query.eval" (fun () -> Query.eval db ?against q) with
  | Ok r -> Query.render r
  | Error e -> failwith (Query.error_to_string e)

(* a warm query over archived runs *)
let query ~edb_dir text ~source_dir ?against_dir () =
  eval ~edb_dir text
    ~source:(fun () -> load source_dir)
    ?against:(Option.map (fun d () -> load d) against_dir)
    ()

(* Session.record into [archive_dir], then the first query on the
   re-ingested run into a fresh store at [store_dir], then its flush;
   returns the re-ingested set and the query's answer *)
let record ts ~archive_dir ~store_dir text =
  ignore
    (span "Archive.save" (fun () -> Archive.save ~format:Archive.V2 ~dir:archive_dir ts)
      : int);
  let registered = load archive_dir in
  let store =
    match span "Store.load" (fun () -> Store.load ~dir:store_dir) with
    | Ok st -> st
    | Error e -> failwith (Store.error_to_string e)
  in
  let answer =
    eval
      ~edb_dir:(Filename.concat (Store.dir store) "eventdb")
      text
      ~source:(fun () -> registered)
      ()
  in
  (match span "Store.flush" (fun () -> Store.flush store) with
  | Ok () -> ()
  | Error e -> failwith (Store.error_to_string e));
  (registered, answer)
