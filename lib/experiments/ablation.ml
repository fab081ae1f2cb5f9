(** Ablation studies for the design choices DESIGN.md calls out:
    IRQ handling during transaction reconstruction, write-over-read
    folding, the winner-selection strategy, and subclass-aware
    derivation. Each returns a printable report over the shared context's
    trace. *)

module Import = Lockdoc_db.Import
module Dataset = Lockdoc_core.Dataset
module Rule = Lockdoc_core.Rule
module Selection = Lockdoc_core.Selection
module Derivator = Lockdoc_core.Derivator
module Tablefmt = Lockdoc_util.Tablefmt

let winners mined =
  List.map
    (fun (m : Derivator.mined) ->
      ( (m.Derivator.m_type, m.Derivator.m_member, m.Derivator.m_kind),
        Rule.to_string m.Derivator.m_winner ))
    mined

let diff_count a b =
  List.fold_left
    (fun acc (key, wa) ->
      match List.assoc_opt key b with
      | Some wb when wb <> wa -> acc + 1
      | Some _ | None -> acc)
    0 a

(* {2 IRQ handling: paper-style inheritance vs clean-slate handlers} *)

let render_irq (ctx : Context.t) =
  let store_sep, _ = Import.run ~irq_mode:Import.Separate ctx.Context.trace in
  let mined_sep = Derivator.derive_all (Dataset.of_store store_sep) in
  let inherit_winners = winners ctx.Context.mined in
  let separate_winners = winners mined_sep in
  let pseudo_rules ws =
    List.length
      (List.filter
         (fun (_, w) ->
           let has sub =
             let nl = String.length sub and hl = String.length w in
             let rec go i = i + nl <= hl && (String.sub w i nl = sub || go (i + 1)) in
             go 0
           in
           has "hardirq" || has "softirq")
         ws)
  in
  Printf.sprintf
    "Ablation: IRQ handling in transaction reconstruction\n\
     inherit (paper): %d mined rules, %d mentioning pseudo-IRQ locks\n\
     separate:        %d mined rules, %d mentioning pseudo-IRQ locks\n\
     winners that change between modes: %d"
    (List.length inherit_winners)
    (pseudo_rules inherit_winners)
    (List.length separate_winners)
    (pseudo_rules separate_winners)
    (diff_count inherit_winners separate_winners)

(* {2 Write-over-read folding} *)

let render_wor (ctx : Context.t) =
  let store = Dataset.store ctx.Context.dataset in
  let mined_off = Derivator.derive_all (Dataset.of_store ~wor:false store) in
  let on = winners ctx.Context.mined and off = winners mined_off in
  let rules_of kind ws =
    List.length (List.filter (fun ((_, _, k), _) -> k = kind) ws)
  in
  Printf.sprintf
    "Ablation: write-over-read folding\n\
     WoR on  (paper): %d read rules, %d write rules\n\
     WoR off:         %d read rules, %d write rules\n\
     winners that change: %d\n\
     (without WoR, mixed read/write transactions pollute the read-side\n\
     evidence with writer-only lock sets)"
    (rules_of Rule.R on) (rules_of Rule.W on)
    (rules_of Rule.R off) (rules_of Rule.W off)
    (diff_count on off)

(* {2 Selection strategy} *)

let render_selection (ctx : Context.t) =
  let relocked strategy =
    List.map
      (fun (m : Derivator.mined) ->
        let w = Selection.select ~strategy ~tac:0.9 m.Derivator.m_hypotheses in
        ( (m.Derivator.m_type, m.Derivator.m_member, m.Derivator.m_kind),
          Rule.to_string w.Lockdoc_core.Hypothesis.rule ))
      ctx.Context.mined
  in
  let lockdoc = relocked Selection.Lockdoc in
  let naive = relocked Selection.Naive in
  let nolock ws = List.length (List.filter (fun (_, w) -> w = "nolock") ws) in
  Printf.sprintf
    "Ablation: winner-selection strategy (tac = 0.9)\n\
     lockdoc (lowest support in accepted group): %d no-lock winners of %d\n\
     naive (highest support):                    %d no-lock winners of %d\n\
     winners that differ: %d\n\
     (the naive strategy picks enclosing locks over the true nested rule —\n\
     see the clock example in the paper's Sec. 4.3)"
    (nolock lockdoc) (List.length lockdoc)
    (nolock naive) (List.length naive)
    (diff_count lockdoc naive)

(* {2 Subclass-aware derivation} *)

let render_subclass (ctx : Context.t) =
  let merged = Derivator.derive_merged ctx.Context.dataset "inode" in
  let merged_winner member kind =
    List.find_opt
      (fun m -> m.Derivator.m_member = member && m.Derivator.m_kind = kind)
      merged
  in
  let divergent = ref [] in
  List.iter
    (fun (m : Derivator.mined) ->
      let base =
        match String.index_opt m.Derivator.m_type ':' with
        | Some i -> String.sub m.Derivator.m_type 0 i
        | None -> m.Derivator.m_type
      in
      if base = "inode" then
        match merged_winner m.Derivator.m_member m.Derivator.m_kind with
        | Some g when not (Rule.equal g.Derivator.m_winner m.Derivator.m_winner) ->
            divergent :=
              (m.Derivator.m_type, m.Derivator.m_member,
               Rule.access_to_string m.Derivator.m_kind,
               Rule.to_string m.Derivator.m_winner,
               Rule.to_string g.Derivator.m_winner)
              :: !divergent
        | Some _ | None -> ())
    ctx.Context.mined;
  let table =
    Tablefmt.create
      ~header:[ "Subclass"; "Member"; "r/w"; "Subclass rule"; "Merged rule" ]
  in
  List.iteri
    (fun i (ty, member, kind, sub_rule, merged_rule) ->
      if i < 12 then Tablefmt.add_row table [ ty; member; kind; sub_rule; merged_rule ])
    (List.rev !divergent);
  Printf.sprintf
    "Ablation: subclass-aware derivation for struct inode\n\
     members whose per-subclass rule differs from the merged rule: %d\n%s"
    (List.length !divergent) (Tablefmt.render table)

(* {2 Reader/writer side sensitivity (extension beyond the paper)} *)

let render_sides (ctx : Context.t) =
  let store = Dataset.store ctx.Context.dataset in
  let mined_sides =
    Derivator.derive_all (Dataset.of_store ~side_sensitive:true store)
  in
  let plain = winners ctx.Context.mined and sided = winners mined_sides in
  let reader_rules =
    List.filter
      (fun (_, w) ->
        let has sub =
          let nl = String.length sub and hl = String.length w in
          let rec go i = i + nl <= hl && (String.sub w i nl = sub || go (i + 1)) in
          go 0
        in
        has "[r]")
      sided
  in
  let sample =
    match reader_rules with
    | ((ty, member, kind), w) :: _ ->
        Printf.sprintf "e.g. %s.%s (%s) mines %s" ty member
          (Rule.access_to_string kind) w
    | [] -> "none observed"
  in
  Printf.sprintf
    "Ablation: reader/writer side sensitivity (extension)\n\
     side-blind (paper): %d rules\n\
     side-aware:         %d rules, %d explicitly reader-side\n\
     winners that change: %d\n\
     %s\n\
     (the paper's model treats down_read and down_write as the same lock;\n\
     side-aware descriptors reveal which rules only need the shared side)"
    (List.length plain) (List.length sided) (List.length reader_rules)
    (diff_count plain sided) sample

(* {2 Corruption resilience} *)

let render_corruption (ctx : Context.t) =
  let module Trace = Lockdoc_trace.Trace in
  let module Check = Lockdoc_trace.Check in
  let module Corrupt = Lockdoc_trace.Corrupt in
  let lines = Trace.to_lines ctx.Context.trace in
  (* Strict vs lenient cost on the clean trace. Wall clock, not
     [Sys.time]: CPU time double-counts whenever domains are active. *)
  let time f = Lockdoc_obs.Obs.Clock.timed f in
  let _, t_strict = time (fun () -> Import.run ~mode:Import.Strict ctx.Context.trace) in
  let _, t_lenient =
    time (fun () -> Import.run ~mode:Import.Lenient ctx.Context.trace)
  in
  let _, t_check = time (fun () -> Check.run ctx.Context.trace) in
  let table =
    Tablefmt.create
      ~header:
        [ "Seed"; "Mutations"; "Reader"; "Stream"; "Import"; "Events kept" ]
  in
  Tablefmt.set_align table
    [ Tablefmt.Right; Tablefmt.Left; Tablefmt.Right; Tablefmt.Right;
      Tablefmt.Right; Tablefmt.Right ];
  List.iter
    (fun seed ->
      let lines', ops = Corrupt.corrupt ~seed lines in
      let t, reader_diags = Trace.read_lines ~mode:Trace.Lenient lines' in
      let stream_diags = Check.run t in
      let _, stats = Import.run ~mode:Import.Lenient t in
      Tablefmt.add_row table
        [
          string_of_int seed;
          String.concat "; " (List.map Corrupt.describe ops);
          string_of_int (List.length reader_diags);
          string_of_int (List.length stream_diags);
          string_of_int (Import.anomaly_total stats);
          Printf.sprintf "%d/%d"
            (Array.length t.Lockdoc_trace.Trace.events)
            (Array.length ctx.Context.trace.Lockdoc_trace.Trace.events);
        ])
    [ 1; 2; 3; 4; 5 ];
  Printf.sprintf
    "Ablation: ingestion resilience under trace corruption\n\
     clean trace: strict import %.2fs, lenient import %.2fs, invariant \
     check %.2fs (wall)\n\
     anomalies recovered per corruption seed (lenient mode):\n%s"
    t_strict.Lockdoc_obs.Obs.Clock.wall t_lenient.Lockdoc_obs.Obs.Clock.wall
    t_check.Lockdoc_obs.Obs.Clock.wall (Tablefmt.render table)

(* {2 lockdep baseline comparison} *)

let render_lockdep (ctx : Context.t) =
  let report = Lockdoc_core.Lockdep.analyse (Dataset.store ctx.Context.dataset) in
  "Baseline: lockdep-style lock-order analysis (paper Sec. 3.2)\n"
  ^ Lockdoc_core.Lockdep.render report
  ^ "(lockdep validates acquisition order per class; it cannot say which\n\
     members a lock protects — the complementary question LockDoc answers)"
