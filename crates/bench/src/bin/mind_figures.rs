//! `mind-figures`: regenerates the paper's figures and checks that the
//! committed `results/` are what the code prints.
//!
//! ```text
//! mind-figures <name>...|all [--scale <x>] [--hours <n>] [--loss <frac>]
//! mind-figures <name>...|all --check <dir>
//! mind-figures <name>...|all --write <dir>
//! ```
//!
//! Plain mode writes each figure's series to stdout and its verdict to
//! stderr. `--check` runs the figures at the committed scale into a
//! buffer and byte-diffs each against `<dir>/<name>.txt`; `--write`
//! regenerates those files. A shape check that does not reproduce, or a
//! file that differs, exits 1; a bad command line exits 2.

use mind_bench::figures::{Figure, Scale, FIGURES};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where the figures' bytes go.
#[derive(Debug, PartialEq)]
enum Mode {
    Print,
    Check(PathBuf),
    Write(PathBuf),
}

fn usage(table: &[Figure]) -> String {
    let names: Vec<&str> = table.iter().map(|f| f.name).collect();
    format!(
        "usage: mind-figures <name>...|all [--scale <x>] [--hours <n>] [--loss <frac>]\n\
         \x20      mind-figures <name>...|all --check <dir> | --write <dir>\n\
         figures: {}",
        names.join(" ")
    )
}

/// The whole command line: which figures, at what scale, to where.
fn parse<'t>(
    args: &[String],
    table: &'t [Figure],
) -> Result<(Vec<&'t Figure>, Scale, Mode), String> {
    fn value<T: std::str::FromStr>(opt: &str, raw: Option<String>) -> Result<T, String> {
        let raw = raw.ok_or_else(|| format!("{opt} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("malformed {opt} value {raw:?}"))
    }
    let mut figures: Vec<&Figure> = Vec::new();
    let mut scale = Scale::default();
    let mut mode = Mode::Print;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        // `--opt value` and `--opt=value` are the same option.
        let (opt, inline) = match arg.split_once('=') {
            Some((opt, v)) if opt.starts_with("--") => (opt, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        let mut val = || inline.clone().or_else(|| args.next().cloned());
        match opt {
            "--scale" => scale.volume = value(opt, val())?,
            "--hours" => scale.hours = Some(value(opt, val())?),
            "--loss" => scale.loss = Some(value(opt, val())?),
            "--check" | "--write" if mode != Mode::Print => {
                return Err("--check and --write take one directory between them".into());
            }
            "--check" => mode = Mode::Check(value(opt, val())?),
            "--write" => mode = Mode::Write(value(opt, val())?),
            "all" => figures.extend(table),
            name => match table.iter().find(|f| f.name == name) {
                Some(f) => figures.push(f),
                None => return Err(format!("unknown figure or option {name:?}")),
            },
        }
    }
    if figures.is_empty() {
        return Err("no figure named".into());
    }
    if mode != Mode::Print && scale != Scale::default() {
        return Err(
            "--check and --write run the committed scale: no --scale/--hours/--loss".into(),
        );
    }
    // A knob a figure does not have is an error, not a silent default run.
    if let Some(f) = figures.iter().find(|f| scale.loss.is_some() && !f.loss) {
        return Err(format!("{} has no --loss axis", f.name));
    }
    Ok((figures, scale, mode))
}

/// The first line at which two outputs part: `(line number, committed
/// line, current line)`, `None` when they are byte-identical.
fn first_difference(committed: &[u8], current: &[u8]) -> Option<(usize, String, String)> {
    if committed == current {
        return None;
    }
    let show = |line: Option<&[u8]>| match line {
        Some(l) => String::from_utf8_lossy(l).into_owned(),
        None => "<end of file>".to_string(),
    };
    let mut a = committed.split_inclusive(|&c| c == b'\n');
    let mut b = current.split_inclusive(|&c| c == b'\n');
    let mut line = 1;
    loop {
        let (x, y) = (a.next(), b.next());
        if x != y {
            return Some((line, show(x), show(y)));
        }
        line += 1;
    }
}

/// Diffs one figure's bytes against its committed file, reporting to
/// `out`. `true` when identical.
fn check_file(path: &Path, current: &[u8], out: &mut dyn Write) -> std::io::Result<bool> {
    let committed = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            writeln!(out, "MISSING {}: {e}", path.display())?;
            return Ok(false);
        }
    };
    match first_difference(&committed, current) {
        None => Ok(true),
        Some((line, was, is)) => {
            writeln!(out, "DIFF {}:{line}", path.display())?;
            writeln!(out, "  committed: {}", was.trim_end_matches('\n'))?;
            writeln!(out, "  current:   {}", is.trim_end_matches('\n'))?;
            Ok(false)
        }
    }
}

/// Runs the figures into `out` or against `mode`'s directory, one
/// verdict line each to `log`. `true`: every verdict reproduced and every
/// checked file matched.
fn run(
    figures: &[&Figure],
    scale: &Scale,
    mode: &Mode,
    out: &mut dyn Write,
    log: &mut dyn Write,
) -> std::io::Result<bool> {
    let mut all_ok = true;
    for fig in figures {
        let mut bytes = Vec::new();
        let verdict = match mode {
            Mode::Print => (fig.run)(out, scale)?,
            _ => (fig.run)(&mut bytes, scale)?,
        };
        let file = format!("{}.txt", fig.name);
        let same = match mode {
            Mode::Print => true,
            Mode::Write(dir) => std::fs::write(dir.join(file), &bytes).map(|()| true)?,
            Mode::Check(dir) => check_file(&dir.join(file), &bytes, out)?,
        };
        writeln!(log, "mind-figures: {}: {verdict}", fig.name)?;
        all_ok &= verdict.reproduced && same;
    }
    Ok(all_ok)
}

/// `main` over injectable table and sinks. Exit status 0: all reproduced
/// and identical; 1: a verdict, a diff or the disk failed; 2: the command
/// line was refused.
fn main_with(args: &[String], table: &[Figure], out: &mut dyn Write, log: &mut dyn Write) -> u8 {
    let (figures, scale, mode) = match parse(args, table) {
        Ok(parsed) => parsed,
        Err(why) => {
            let _ = writeln!(log, "mind-figures: {why}\n{}", usage(table));
            return 2;
        }
    };
    match run(&figures, &scale, &mode, out, log) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            let _ = writeln!(log, "mind-figures: {e}");
            1
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (out, log) = (std::io::stdout(), std::io::stderr());
    ExitCode::from(main_with(&args, FIGURES, &mut out.lock(), &mut log.lock()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mind_bench::figures::Verdict;

    fn toy(out: &mut dyn Write, _: &Scale) -> std::io::Result<Verdict> {
        writeln!(out, "line one\nline two")?;
        Ok(Verdict::new(true, "two lines"))
    }

    fn toy_fails(out: &mut dyn Write, _: &Scale) -> std::io::Result<Verdict> {
        writeln!(out, "line one")?;
        Ok(Verdict::new(false, "one line"))
    }

    const TOYS: &[Figure] = &[
        Figure {
            name: "toy",
            run: toy,
            loss: false,
        },
        Figure {
            name: "toy_fails",
            run: toy_fails,
            loss: true,
        },
    ];

    /// Runs `mind-figures <line>` over the toy table; `(status, stdout)`.
    fn drive(line: &str) -> (u8, String) {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        let status = main_with(&args, TOYS, &mut out, &mut Vec::new());
        (status, String::from_utf8(out).unwrap())
    }

    /// A fresh directory under the system temp dir, removed on drop.
    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("mind-figures-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn table_and_results_name_the_same_entries() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut committed: Vec<String> = std::fs::read_dir(results)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        committed.sort();
        let mut table: Vec<String> = FIGURES.iter().map(|f| format!("{}.txt", f.name)).collect();
        table.sort();
        assert_eq!(table, committed);
        assert_eq!(table.len(), 19);
    }

    #[test]
    fn check_passes_on_written_files_and_names_a_one_byte_change() {
        let dir = TempDir::new("diff");
        let d = dir.0.display();
        assert_eq!(drive(&format!("toy --write {d}")), (0, String::new()));
        assert_eq!(drive(&format!("toy --check {d}")), (0, String::new()));

        let path = dir.0.join("toy.txt");
        std::fs::write(&path, "line one\nline twO\n").unwrap();
        let (status, out) = drive(&format!("toy --check {d}"));
        assert_eq!(status, 1);
        assert_eq!(
            out,
            format!(
                "DIFF {}:2\n  committed: line twO\n  current:   line two\n",
                path.display()
            )
        );

        // A committed file that merely stops early is a diff as well.
        std::fs::write(&path, "line one\n").unwrap();
        let (status, out) = drive(&format!("toy --check {d}"));
        assert_eq!(status, 1);
        assert!(out.contains(":2\n  committed: <end of file>\n"), "{out}");
    }

    #[test]
    fn check_reports_a_missing_file() {
        let dir = TempDir::new("missing");
        let (status, out) = drive(&format!("toy --check {}", dir.0.display()));
        assert_eq!(status, 1);
        assert!(
            out.starts_with("MISSING ") && out.contains("toy.txt"),
            "{out}"
        );
    }

    #[test]
    fn a_false_verdict_is_a_nonzero_exit() {
        assert_eq!(drive("toy"), (0, "line one\nline two\n".to_string()));
        assert_eq!(drive("toy_fails").0, 1);
        assert_eq!(drive("all").0, 1);
        // Also under --check with identical bytes on disk.
        let dir = TempDir::new("verdict");
        let d = dir.0.display();
        assert_eq!(drive(&format!("toy_fails --write {d}")).0, 1);
        assert_eq!(drive(&format!("toy_fails --check {d}")), (1, String::new()));
    }

    #[test]
    fn knobs_a_figure_does_not_have_are_refused() {
        assert_eq!(drive("toy_fails --loss=0.05").0, 1);
        assert_eq!(drive("toy --loss 0.05").0, 2);
        assert_eq!(drive("all --loss 0.05").0, 2);
        // The real table: fig11 and fig16 have a loss axis.
        let args = ["fig10_query_latency".to_string(), "--loss=0.05".to_string()];
        let refused = parse(&args, FIGURES).err();
        assert_eq!(
            refused.as_deref(),
            Some("fig10_query_latency has no --loss axis")
        );
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for line in [
            "",
            "--scale 2",
            "nope",
            "toy --scale 0,5",
            "toy --hours two",
            "toy --hours",
            "toy --check a --write b",
            "toy --check dir --scale 2",
            "toy_fails --write dir --loss 0.05",
            "toy --smoke",
        ] {
            assert_eq!(drive(line).0, 2, "{line:?}");
        }
        let args: Vec<String> = ["toy", "--scale=0.5", "--hours", "2"]
            .map(String::from)
            .into();
        let (figures, scale, mode) = parse(&args, TOYS).unwrap();
        assert_eq!(figures.len(), 1);
        assert_eq!((scale.volume, scale.hours), (0.5, Some(2)));
        assert_eq!(mode, Mode::Print);
    }
}
