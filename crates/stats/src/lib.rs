//! Statistics toolkit backing PerfCloud's detection and evaluation pipeline.
//!
//! The paper's signal chain is: sample per-VM counters every 5 s → smooth
//! with an EWMA → take the **standard deviation across the application's
//! VMs** of the block-iowait ratio / CPI → compare against a threshold →
//! correlate the resulting deviation time series against each suspect VM's
//! I/O-throughput / LLC-miss-rate series with **Pearson correlation treating
//! missing samples as zero**. Every stage of that chain lives here, plus the
//! summaries the evaluation section reports (quantiles, boxplots).

pub mod boxplot;
pub mod descriptive;
pub mod ewma;
pub mod pearson;
pub mod quantile;
pub mod rank;
pub mod rolling;
pub mod timeseries;

pub use boxplot::BoxplotSummary;
pub use descriptive::{
    mean, population_stddev, population_stddev_stable, population_variance, CompensatedSum, Running,
};
pub use ewma::Ewma;
pub use pearson::{pearson, pearson_missing_as_zero};
pub use quantile::{median, quantile};
pub use rank::{robust_stddev, spearman_victim_aware_lagged, RankScratch};
pub use rolling::RollingPearson;
pub use timeseries::{SeriesRing, SeriesView};
