//! Machine-readable scenario-library listing.
//!
//! `paper list --json` and the daemon's `GET /scenarios` both serve this
//! document, so a client can discover what the daemon can run without
//! scraping human-oriented text. Every `*.json` under the library
//! directory appears exactly once (sorted by path): valid files carry
//! their id, phases and epochs; invalid files carry their validation
//! error instead of being silently skipped — a broken library file must
//! be as visible to machines as `paper list` makes it to humans.

use std::path::Path;

use metrics::Json;
use scenario::{parse_scenario, ScenarioSpec, WorkloadPhase};

/// The listing document: `{"scenarios": [...]}` with one entry per
/// library file, sorted by path.
pub fn library_json(dir: &Path) -> Json {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    let mut scenarios = Vec::with_capacity(files.len());
    for file in files {
        scenarios.push(entry_json(&file));
    }
    let mut root = Json::object();
    root.push("scenarios", Json::Arr(scenarios));
    root
}

fn entry_json(file: &Path) -> Json {
    let mut entry = Json::object();
    entry.push("path", file.display().to_string());
    let parsed = std::fs::read_to_string(file)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_scenario(&text).map_err(|e| e.to_string()));
    let spec = match parsed {
        Ok(spec) => spec,
        Err(error) => {
            entry.push("error", error);
            return entry;
        }
    };
    if let Some(missing) = missing_trace(&spec, file) {
        entry.push("error", format!("trace file '{missing}' not found"));
        return entry;
    }
    entry
        .push("id", spec.name.as_str())
        .push("description", spec.description.as_str())
        .push("topology", spec.topology.label())
        .push("tors", spec.net.n_tors)
        .push("epochs", spec.total_epochs())
        .push(
            "engines",
            Json::Arr(
                spec.engines
                    .iter()
                    .map(|e| Json::Str(e.label(spec.topology)))
                    .collect(),
            ),
        )
        .push(
            "phases",
            Json::Arr(spec.phases.iter().map(phase_json).collect()),
        );
    entry
}

fn phase_json(phase: &scenario::PhaseSpec) -> Json {
    let mut p = Json::object();
    p.push("label", phase.label.as_str())
        .push(
            "epochs",
            Json::Arr(vec![
                Json::UInt(phase.start_epoch),
                Json::UInt(phase.end_epoch),
            ]),
        )
        .push("workload", phase.workload.kind());
    p
}

/// The one error class that outlives spec validation: a referenced trace
/// file that is not there (mirrors `paper list`'s existence check —
/// listing stays O(file size), full compilation waits for a run).
fn missing_trace(spec: &ScenarioSpec, file: &Path) -> Option<String> {
    let base = file.parent().unwrap_or(Path::new("."));
    spec.phases.iter().find_map(|p| match &p.workload {
        WorkloadPhase::Trace { path } if !base.join(path).is_file() => Some(path.clone()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_library() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nego-library-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("ok.json"),
            r#"{"name": "ok", "description": "fine", "topology": "parallel",
               "tors": 16, "ports": 4,
               "phases": [{"label": "p", "workload": "poisson", "load": 50, "epochs": [0, 10]},
                          {"workload": "incast", "degree": 4, "flow_bytes": 1000, "epochs": [10, 20]}]}"#,
        )
        .unwrap();
        std::fs::write(dir.join("broken.json"), "{\"name\": oops").unwrap();
        std::fs::write(dir.join("notes.txt"), "not a scenario").unwrap();
        dir
    }

    #[test]
    fn lists_valid_and_broken_files_with_details() {
        let dir = tmp_library();
        let doc = library_json(&dir);
        let scenarios = doc.get("scenarios").unwrap().as_array().unwrap();
        assert_eq!(scenarios.len(), 2, "txt file excluded");
        // Sorted by path: broken.json before ok.json.
        let broken = &scenarios[0];
        assert!(broken
            .get("path")
            .unwrap()
            .as_str()
            .unwrap()
            .ends_with("broken.json"));
        assert!(broken
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("line"));
        assert!(broken.get("id").is_none(), "no id for an unparsable file");
        let ok = &scenarios[1];
        assert_eq!(ok.get("id").unwrap().as_str(), Some("ok"));
        assert_eq!(ok.get("epochs").unwrap().as_u64(), Some(20));
        let phases = ok.get("phases").unwrap().as_array().unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].get("label").unwrap().as_str(), Some("p"));
        assert_eq!(phases[1].get("workload").unwrap().as_str(), Some("incast"));
        assert_eq!(
            phases[1].get("epochs").unwrap().as_array().unwrap()[1].as_u64(),
            Some(20)
        );
        // The whole document survives a render/parse round trip.
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_an_empty_listing() {
        let doc = library_json(Path::new("/nonexistent/nowhere"));
        assert_eq!(doc.get("scenarios").unwrap().as_array().unwrap().len(), 0);
    }
}
