//! Generated benchmark workloads as trace files: a generator's output,
//! chunked at transport size, through [`TraceWriter`] and back through
//! [`TraceReader`].

#[cfg(test)]
mod tests {
    use crate::{TraceReader, TraceWriter};
    use igm_isa::TraceEntry;
    use igm_lba::{chunks, TraceBatch};
    use igm_workload::Benchmark;

    /// Encodes `n` records of `bench` at `chunk_bytes` per frame; returns
    /// the file and its writer's (records, frames, stream bytes).
    fn emit(bench: Benchmark, n: u64, chunk_bytes: u32) -> (Vec<u8>, (u64, u64, u64)) {
        let mut writer = TraceWriter::new(Vec::new()).unwrap();
        let mut chunker = chunks(bench.trace(n), chunk_bytes);
        let mut batch = TraceBatch::new();
        while chunker.next_into_batch(&mut batch) {
            writer.write_chunk_batch(&batch).unwrap();
        }
        let counts = (writer.records(), writer.chunks(), writer.stream_bytes());
        (writer.finish().unwrap(), counts)
    }

    #[test]
    fn emitted_file_replays_the_generator_exactly() {
        let (bytes, (records, frames, _)) = emit(Benchmark::Gzip, 5_000, 4096);
        assert_eq!(records, 5_000);
        assert!(frames > 1);
        let live: Vec<TraceEntry> = Benchmark::Gzip.trace(5_000).collect();
        assert_eq!(TraceReader::new(&bytes[..]).unwrap().read_all().unwrap(), live);
    }

    #[test]
    fn encoding_beats_the_in_memory_representation() {
        let in_memory = std::mem::size_of::<TraceEntry>() as f64;
        for bench in [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Gcc] {
            let (_, (records, _, stream_bytes)) = emit(bench, 20_000, 16 * 1024);
            let per_record = stream_bytes as f64 / records as f64;
            assert!(
                per_record < in_memory,
                "{bench}: {per_record:.2} B/record not below the {in_memory} B in-memory baseline"
            );
        }
    }
}
