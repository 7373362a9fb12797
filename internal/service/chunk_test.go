package service

import "testing"

// TestStreamShape pins the chunking arithmetic: chunks never exceed the
// stream buffer or chunkMaxCliques, and slots × chunk never exceeds the
// buffer, so the buffer still bounds the cliques in flight.
func TestStreamShape(t *testing.T) {
	for _, buffer := range []int{1, 2, 255, 256, 1024, 65536} {
		chunk, slots := streamShape(buffer)
		if chunk < 1 || chunk > chunkMaxCliques || chunk > buffer {
			t.Errorf("buffer %d: chunk %d out of [1, min(buffer, %d)]", buffer, chunk, chunkMaxCliques)
		}
		if slots < 1 || slots*chunk > buffer {
			t.Errorf("buffer %d: %d slots × %d cliques breaks the bound", buffer, slots, chunk)
		}
	}
	if chunk, slots := streamShape(1024); chunk != 256 || slots != 4 {
		t.Errorf("default buffer 1024: chunk %d, slots %d; want 256, 4", chunk, slots)
	}
}

// TestChunkerClosesChunks checks where chunks close — at the clique bound,
// at the byte bound, and on an explicit flush — and that every record
// arrives whole and in order.
func TestChunkerClosesChunks(t *testing.T) {
	j := &Job{}
	j.openStream(8) // 8-clique chunks, 1 slot
	k := newChunker(j, nil, nil)
	var got []streamItem
	drain := func() {
		for {
			select {
			case it := <-j.cliques:
				got = append(got, it)
			default:
				return
			}
		}
	}
	for i := range 8 {
		if !k.add([]int32{int32(i)}) {
			t.Fatal("add refused with room in the channel")
		}
	}
	drain()
	if len(got) != 1 || got[0].n != 8 || string(got[0].b[:10]) != "{\"c\":[0]}\n" {
		t.Fatalf("after 8 cliques: %d chunks, want one of 8 starting with clique 0", len(got))
	}
	// One clique of over chunkMaxBytes closes its chunk on its own.
	big := make([]int32, chunkMaxBytes/4)
	for i := range big {
		big[i] = 1000
	}
	k.add(big)
	drain()
	if len(got) != 2 || got[1].n != 1 || len(got[1].b) <= chunkMaxBytes {
		t.Fatalf("oversized clique did not close its chunk (chunks %d)", len(got))
	}
	k.add([]int32{7})
	drain()
	if len(got) != 2 {
		t.Fatal("a partial chunk was sent before its flush")
	}
	k.flush()
	k.flush() // flushing an empty chunk sends nothing
	drain()
	if len(got) != 3 || got[2].n != 1 || string(got[2].b) != "{\"c\":[7]}\n" {
		t.Fatalf("flush: %d chunks, last %q", len(got), got[len(got)-1].b)
	}
}
