type experiment = {
  id : string;
  title : string;
  needs_context : bool;
  render : Context.t Lazy.t -> string;
}

let without_ctx f = fun (_ : Context.t Lazy.t) -> f ()

let with_ctx f = fun ctx -> f (Lazy.force ctx)

let all =
  [
    {
      id = "fig1";
      title = "Lock usage and LoC growth, Linux 3.0-4.18";
      needs_context = false;
      render = without_ctx Fig1.render;
    };
    {
      id = "tab1";
      title = "Clock example: observed/folded/WoR access matrix";
      needs_context = false;
      render = without_ctx Clock.render_tab1_only;
    };
    {
      id = "tab2";
      title = "Clock example: hypotheses for writes to `minutes'";
      needs_context = false;
      render = without_ctx Clock.render_tab2_only;
    };
    {
      id = "tab3";
      title = "Code coverage of the benchmark mix";
      needs_context = true;
      render = with_ctx Tab3.render;
    };
    {
      id = "sec72";
      title = "Tracing and derivation statistics";
      needs_context = true;
      render = with_ctx Sec72.render;
    };
    {
      id = "tab4";
      title = "Validation of documented locking rules";
      needs_context = true;
      render = with_ctx Tab4.render;
    };
    {
      id = "tab5";
      title = "Documented struct inode rules in detail";
      needs_context = true;
      render = with_ctx Tab5.render;
    };
    {
      id = "tab6";
      title = "Mined locking rules per data type";
      needs_context = true;
      render = with_ctx Tab6.render;
    };
    {
      id = "fig7";
      title = "No-lock fraction vs acceptance threshold";
      needs_context = true;
      render = with_ctx Fig7.render;
    };
    {
      id = "fig8";
      title = "Generated locking documentation for fs/inode.c";
      needs_context = true;
      render = with_ctx Fig8.render;
    };
    {
      id = "tab7";
      title = "Locking-rule violations per data type";
      needs_context = true;
      render = with_ctx Tab7.render;
    };
    {
      id = "tab8";
      title = "Locking-rule violation examples";
      needs_context = true;
      render = with_ctx Tab8.render;
    };
    {
      id = "sanitize";
      title = "Sanitizer: seeded-bug recovery per workload family";
      needs_context = false;
      render = without_ctx Sanitize_exp.render;
    };
    {
      id = "lint";
      title = "Static lint: IR analyses vs dynamic ground truth";
      needs_context = false;
      render = without_ctx Lint_exp.render;
    };
    {
      id = "ablation-irq";
      title = "Ablation: IRQ handling in transaction reconstruction";
      needs_context = true;
      render = with_ctx Ablation.render_irq;
    };
    {
      id = "ablation-wor";
      title = "Ablation: write-over-read folding";
      needs_context = true;
      render = with_ctx Ablation.render_wor;
    };
    {
      id = "ablation-selection";
      title = "Ablation: winner-selection strategy";
      needs_context = true;
      render = with_ctx Ablation.render_selection;
    };
    {
      id = "ablation-subclass";
      title = "Ablation: subclass-aware derivation for struct inode";
      needs_context = true;
      render = with_ctx Ablation.render_subclass;
    };
    {
      id = "ablation-sides";
      title = "Ablation: reader/writer side sensitivity";
      needs_context = true;
      render = with_ctx Ablation.render_sides;
    };
    {
      id = "ablation-corruption";
      title = "Ablation: ingestion resilience under trace corruption";
      needs_context = true;
      render = with_ctx Ablation.render_corruption;
    };
    {
      id = "lockdep";
      title = "Baseline: lockdep-style lock-order analysis";
      needs_context = true;
      render = with_ctx Ablation.render_lockdep;
    };
    {
      id = "relations";
      title = "Extension: cross-object protection relations";
      needs_context = true;
      render =
        with_ctx (fun c ->
            Lockdoc_core.Relations.render
              (Lockdoc_core.Relations.analyse c.Context.mined));
    };
    {
      id = "lockmeter";
      title = "Baseline: lockmeter-style lock statistics";
      needs_context = true;
      render =
        with_ctx (fun c ->
            Lockdoc_core.Lockmeter.render
              (Lockdoc_core.Lockmeter.analyse c.Context.trace c.Context.store));
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let ids = List.map (fun e -> e.id) all
