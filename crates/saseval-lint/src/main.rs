//! `saseval-lint` — static analysis CLI for SaSeVAL artifacts.
//!
//! ```text
//! saseval-lint [OPTIONS] [FILES...]
//!
//!   FILES                 .sasedsl documents and .scn.json scenario
//!                         files to lint
//!   --use-cases           lint the built-in use-case catalogs
//!   --format text|json    output format (default: text)
//!   --allow CODE          disable a rule
//!   --warn CODE           run a rule at warning level
//!   --deny CODE           run a rule at error level
//!   --jobs N              run rules on N threads (default: 1)
//!   --trace-report DIR    execute the built-in campaign, run the
//!                         trace-graph analysis and write the assurance
//!                         case (GSN JSON + HTML) and SARIF to DIR
//!   --baseline FILE       suppress findings recorded in FILE
//!   --write-baseline FILE record current findings to FILE
//!   -h, --help            print usage
//! ```
//!
//! Exit codes: 0 clean (warnings allowed), 1 error findings, 2 usage or
//! parse failure.

use std::path::PathBuf;
use std::process::ExitCode;

use saseval_core::catalog::{use_case_1, use_case_2};
use saseval_lint::{
    render_json, render_text, run_lint_with_jobs, AssuranceCase, Baseline, Level, LintConfig,
    LintContext, LintReport, ScenarioDocument, SourceDocument, TraceInputs, VerdictRecord,
};
use saseval_obs::Obs;
use saseval_threat::builtin::automotive_library;

const USAGE: &str = "\
usage: saseval-lint [OPTIONS] [FILES...]

  FILES                 .sasedsl documents and .scn.json scenario files
                        to lint
  --use-cases           lint the built-in use-case catalogs
  --format text|json    output format (default: text)
  --allow CODE          disable a rule
  --warn CODE           run a rule at warning level
  --deny CODE           run a rule at error level
  --jobs N              run rules on N threads (default: 1)
  --trace-report DIR    execute the built-in campaign, run the trace-graph
                        analysis and write the assurance case (GSN JSON +
                        HTML) and SARIF to DIR
  --baseline FILE       suppress findings recorded in FILE
  --write-baseline FILE record current findings to FILE
  -h, --help            print usage
";

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

struct Options {
    files: Vec<String>,
    use_cases: bool,
    format: Format,
    config: LintConfig,
    jobs: usize,
    trace_report: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        files: Vec::new(),
        use_cases: false,
        format: Format::Text,
        config: LintConfig::new(),
        jobs: 1,
        trace_report: None,
        baseline: None,
        write_baseline: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut level_arg = |level: Level| -> Result<(), String> {
            let code = iter.next().ok_or_else(|| format!("{arg} requires a rule code"))?;
            options.config.set(code.clone(), level);
            Ok(())
        };
        match arg.as_str() {
            "--use-cases" => options.use_cases = true,
            "--format" => {
                options.format = match iter.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => return Err(format!("--format expects text|json, got {other:?}")),
                };
            }
            "--allow" => level_arg(Level::Allow)?,
            "--warn" => level_arg(Level::Warn)?,
            "--deny" => level_arg(Level::Deny)?,
            "--jobs" => {
                let value = iter.next().ok_or("--jobs requires a thread count")?;
                options.jobs =
                    value.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--jobs expects a positive integer, got `{value}`")
                    })?;
            }
            "--trace-report" => {
                let dir = iter.next().ok_or("--trace-report requires a directory")?;
                options.trace_report = Some(PathBuf::from(dir));
            }
            "--baseline" => {
                let file = iter.next().ok_or("--baseline requires a file")?;
                options.baseline = Some(PathBuf::from(file));
            }
            "--write-baseline" => {
                let file = iter.next().ok_or("--write-baseline requires a file")?;
                options.write_baseline = Some(PathBuf::from(file));
            }
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            file => options.files.push(file.to_owned()),
        }
    }
    if !options.use_cases && options.files.is_empty() {
        return Err("nothing to lint: pass FILES and/or --use-cases".to_owned());
    }
    Ok(options)
}

/// Loads and parses the given DSL files; exits with a parse diagnostic
/// on failure.
fn load_documents(files: &[String]) -> Result<Vec<SourceDocument>, String> {
    let mut documents = Vec::new();
    for file in files {
        let source =
            std::fs::read_to_string(file).map_err(|e| format!("{file}: cannot read: {e}"))?;
        let document = saseval_dsl::parse_document(&source).map_err(|e| {
            format!("{file}:{}:{}: parse error: {}", e.line(), e.column(), e.message())
        })?;
        documents.push(SourceDocument::new(file.clone(), document));
    }
    Ok(documents)
}

/// Loads and parses the given `.scn.json` scenario files.
fn load_scenarios(files: &[String]) -> Result<Vec<ScenarioDocument>, String> {
    let mut scenarios = Vec::new();
    for file in files {
        let source =
            std::fs::read_to_string(file).map_err(|e| format!("{file}: cannot read: {e}"))?;
        let parsed = serde_json::from_str(&source)
            .map_err(|e| format!("{file}: scenario parse error: {e}"))?;
        scenarios.push(ScenarioDocument::new(file.clone(), parsed));
    }
    Ok(scenarios)
}

/// Executes the full built-in campaign once and converts the results
/// into per-catalog verdicts: test cases are tagged `UC1-`/`UC2-` (or
/// carry a known bare ID) and verdict IDs are catalog-local.
fn builtin_verdicts(tag: &str) -> Vec<VerdictRecord> {
    let cases = attack_engine::builtin::full_campaign();
    let results: Vec<_> = cases.iter().map(attack_engine::execute).collect();
    saseval_lint::graph::campaign_verdicts(&results, tag)
}

/// Lowercase-kebab form of a run label, for report file names.
fn slug(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_owned()
}

/// One completed lint run with everything the report writers need.
struct Run {
    label: String,
    report: LintReport,
    case: AssuranceCase,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            if message.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("saseval-lint: {message}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let (scenario_files, dsl_files): (Vec<String>, Vec<String>) =
        options.files.iter().cloned().partition(|f| f.ends_with(".scn.json"));
    let documents = match load_documents(&dsl_files) {
        Ok(documents) => documents,
        Err(message) => {
            eprintln!("saseval-lint: {message}");
            return ExitCode::from(2);
        }
    };
    let scenarios = match load_scenarios(&scenario_files) {
        Ok(scenarios) => scenarios,
        Err(message) => {
            eprintln!("saseval-lint: {message}");
            return ExitCode::from(2);
        }
    };

    let baseline = match &options.baseline {
        Some(path) => {
            let content = match std::fs::read_to_string(path) {
                Ok(content) => content,
                Err(e) => {
                    eprintln!("saseval-lint: {}: cannot read baseline: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match Baseline::parse(&content) {
                Ok(baseline) => Some(baseline),
                Err(message) => {
                    eprintln!("saseval-lint: {}: {message}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    let obs = Obs::noop();
    // One run per lint target: each built-in catalog, then all DSL files
    // as one run.
    let mut runs: Vec<Run> = Vec::new();
    if options.use_cases {
        let library = automotive_library();
        for (tag, catalog) in [("UC1", use_case_1()), ("UC2", use_case_2())] {
            let trace = options
                .trace_report
                .as_ref()
                .map(|_| TraceInputs { verdicts: builtin_verdicts(tag), evidence: Vec::new() });
            let mut ctx = LintContext::for_catalog(&library, &catalog);
            if let Some(trace) = &trace {
                ctx = ctx.with_trace(trace);
            }
            let mut report = run_lint_with_jobs(&ctx, &options.config, &obs, options.jobs);
            if let Some(baseline) = &baseline {
                baseline.apply(&mut report);
            }
            let case = AssuranceCase::build(&catalog.name, &ctx, &report);
            runs.push(Run { label: catalog.name.clone(), report, case });
        }
    }
    if !documents.is_empty() || !scenarios.is_empty() {
        let ctx = LintContext::for_documents(&documents).with_scenarios(&scenarios);
        let mut names = documents
            .iter()
            .map(|d| d.name.as_str())
            .chain(scenarios.iter().map(|s| s.name.as_str()));
        let first = names.next().expect("at least one file");
        let label = match names.count() {
            0 => first.to_owned(),
            rest => format!("{} files", rest + 1),
        };
        let mut report = run_lint_with_jobs(&ctx, &options.config, &obs, options.jobs);
        if let Some(baseline) = &baseline {
            baseline.apply(&mut report);
        }
        let case = AssuranceCase::build(&label, &ctx, &report);
        runs.push(Run { label, report, case });
    }

    if let Some(path) = &options.write_baseline {
        let reports: Vec<&LintReport> = runs.iter().map(|run| &run.report).collect();
        let recorded = Baseline::record(&reports);
        if let Err(e) = std::fs::write(path, recorded.to_json()) {
            eprintln!("saseval-lint: {}: cannot write baseline: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("saseval-lint: recorded {} finding(s) to {}", recorded.len(), path.display());
    }

    if let Some(dir) = &options.trace_report {
        if let Err(message) = write_trace_reports(dir, &runs) {
            eprintln!("saseval-lint: {message}");
            return ExitCode::from(2);
        }
    }

    match options.format {
        Format::Text => {
            for run in &runs {
                println!("== {}", run.label);
                print!("{}", render_text(&run.report));
            }
        }
        Format::Json => {
            let reports: Vec<&LintReport> = runs.iter().map(|run| &run.report).collect();
            print!("{}", render_json(&reports));
        }
    }

    if runs.iter().any(|run| run.report.has_errors()) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Writes per-run `<slug>.gsn.json` + `<slug>.html` and the combined
/// `trace.sarif` into `dir`. All outputs are deterministic.
fn write_trace_reports(dir: &std::path::Path, runs: &[Run]) -> Result<(), String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("{}: cannot create report dir: {e}", dir.display()))?;
    for run in runs {
        let stem = slug(&run.label);
        let gsn = dir.join(format!("{stem}.gsn.json"));
        std::fs::write(&gsn, run.case.to_json())
            .map_err(|e| format!("{}: cannot write: {e}", gsn.display()))?;
        let html = dir.join(format!("{stem}.html"));
        std::fs::write(&html, run.case.to_html())
            .map_err(|e| format!("{}: cannot write: {e}", html.display()))?;
    }
    let reports: Vec<&LintReport> = runs.iter().map(|run| &run.report).collect();
    let sarif = dir.join("trace.sarif");
    std::fs::write(&sarif, render_json(&reports))
        .map_err(|e| format!("{}: cannot write: {e}", sarif.display()))?;
    Ok(())
}
