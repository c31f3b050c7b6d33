//! Regeneration of the paper's configuration tables (I–VII).
//!
//! These tables are *inputs*, not results — regenerating them verifies the
//! implementation's defaults encode exactly the parameters the paper
//! reports.

use biosched_core::aco::AcoParams;
use biosched_metrics::report::Table;
use simcloud::cloudlet::CloudletSpec;
use simcloud::vm::VmSpec;

/// Table I — HBO symbol glossary.
fn table_i() -> Table {
    let mut t = Table::new(vec!["Parameter", "Meaning"]);
    for (p, m) in [
        ("TCLj", "The cLength of the Cloudlet j"),
        ("Sizei", "The cost of storage used by Vm i"),
        ("dchCPS", "The cost of storage of Datacenter i"),
        ("sizeVMi", "The storage required by VM i"),
        ("Mi", "The cost of RAM to execute Cloudlet j by VM i"),
        ("dchCPR", "Cost of RAM for executing Cloudlet j by VM i"),
        ("RAMVMi", "The RAM required by VM i"),
        ("BWi", "Cost of Bandwidth for executing Cloudlet j by VM i"),
        ("dchCPB", "Datacenter i cost per bandwidth"),
        ("BwVMi", "The needed bandwidth consumed by VM i"),
    ] {
        t.push_row(vec![p, m]);
    }
    t
}

/// Table II — ACO parameters, read from [`AcoParams::paper`].
fn table_ii() -> Table {
    let p = AcoParams::paper();
    let mut t = Table::new(vec!["ACO Parameter", "Value"]);
    t.push_row(vec!["Ants".to_string(), p.ants.to_string()]);
    t.push_row(vec!["alpha".to_string(), p.alpha.to_string()]);
    t.push_row(vec!["beta".to_string(), p.beta.to_string()]);
    t.push_row(vec!["rho".to_string(), p.rho.to_string()]);
    t.push_row(vec!["Q".to_string(), p.q.to_string()]);
    t
}

/// Table III — homogeneous VM characteristics.
fn table_iii() -> Table {
    let v = VmSpec::homogeneous_default();
    let mut t = Table::new(vec!["VM characteristic", "Value"]);
    t.push_row(vec!["vmMips".to_string(), v.mips.to_string()]);
    t.push_row(vec!["vmSize".to_string(), v.size_mb.to_string()]);
    t.push_row(vec!["vmRam".to_string(), v.ram_mb.to_string()]);
    t.push_row(vec!["vmBw".to_string(), v.bw_mbps.to_string()]);
    t.push_row(vec!["vmPesNumber".to_string(), v.pes.to_string()]);
    t
}

/// Table IV — homogeneous cloudlet parameters.
fn table_iv() -> Table {
    let c = CloudletSpec::homogeneous_default();
    let mut t = Table::new(vec!["Cloudlet characteristic", "Value"]);
    t.push_row(vec!["cLength".to_string(), c.length_mi.to_string()]);
    t.push_row(vec!["cFileSize".to_string(), c.file_size_mb.to_string()]);
    t.push_row(vec![
        "cOutputSize".to_string(),
        c.output_size_mb.to_string(),
    ]);
    t.push_row(vec!["cPesNumber".to_string(), c.pes.to_string()]);
    t
}

/// Table V — heterogeneous VM characteristic ranges.
fn table_v() -> Table {
    let mut t = Table::new(vec!["Heterogeneous VM characteristic", "Value"]);
    t.push_row(vec!["vmMips", "500-4000"]);
    t.push_row(vec!["vmSize", "5000"]);
    t.push_row(vec!["vmRam", "512"]);
    t.push_row(vec!["vmBw", "500"]);
    t.push_row(vec!["vmPesNumber", "1"]);
    t
}

/// Table VI — heterogeneous cloudlet parameter ranges.
fn table_vi() -> Table {
    let mut t = Table::new(vec!["Heterogeneous Cloudlet characteristic", "Value"]);
    t.push_row(vec!["cLength", "1000-20000"]);
    t.push_row(vec!["cFileSize", "300"]);
    t.push_row(vec!["cOutputSize", "300"]);
    t.push_row(vec!["cPesNumber", "1"]);
    t
}

/// Table VII — heterogeneous datacenter cost ranges.
fn table_vii() -> Table {
    let mut t = Table::new(vec!["Datacenter characteristic", "Value"]);
    t.push_row(vec!["CostPerMemory", "0.01-0.05"]);
    t.push_row(vec!["CostPerStorage", "0.001-0.004"]);
    t.push_row(vec!["CostPerBandwidth", "0.01-0.05"]);
    t.push_row(vec!["CostPerProcessing", "3"]);
    t
}

/// All seven tables, titled.
pub fn all_tables() -> Vec<(&'static str, Table)> {
    vec![
        ("Table I — HBO parameters (glossary)", table_i()),
        ("Table II — ACO parameters", table_ii()),
        ("Table III — VM characteristics, homogeneous", table_iii()),
        ("Table IV — Cloudlet parameters, homogeneous", table_iv()),
        ("Table V — VM characteristics, heterogeneous", table_v()),
        ("Table VI — Cloudlet parameters, heterogeneous", table_vi()),
        ("Table VII — Datacenter values, heterogeneous", table_vii()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_reflects_paper_constants() {
        let csv = table_ii().to_csv();
        assert!(csv.contains("Ants,50"));
        assert!(csv.contains("alpha,0.01"));
        assert!(csv.contains("beta,0.99"));
        assert!(csv.contains("rho,0.4"));
        assert!(csv.contains("Q,100"));
    }

    #[test]
    fn table_iii_iv_reflect_defaults() {
        assert!(table_iii().to_csv().contains("vmMips,1000"));
        assert!(table_iv().to_csv().contains("cLength,250"));
    }

    #[test]
    fn all_seven_tables_render() {
        let tables = all_tables();
        assert_eq!(tables.len(), 7);
        for (title, t) in tables {
            let text = t.render();
            assert!(!text.is_empty(), "{title} rendered empty");
        }
    }
}
