package engine

// ReplayChunk exposes the stamped-run claim size to the external tests.
const ReplayChunk = replayChunk
