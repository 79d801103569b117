//! Minimal HDFS model: fixed-size input blocks.
//!
//! The paper sets the HDFS block size to its default 64 MB; map-task counts
//! in the MapReduce model equal the number of input blocks, and each map
//! task's read size is its block's size, so file layout feeds directly into
//! job shape.

/// Default HDFS block size (64 MB), as in the paper.
pub const DEFAULT_BLOCK_SIZE: u64 = 64 << 20;
