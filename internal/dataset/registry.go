package dataset

import "fmt"

// Generate builds one of the named evaluation corpora at the given size and
// seed: "night-street", "taipei", "amsterdam", "wikisql", or "common-voice".
func Generate(name string, size int, seed int64) (*Dataset, error) {
	ds, err := generate(name, size, seed)
	if err != nil {
		return nil, err
	}
	ds.Corpus = Corpus{Dataset: name, Size: size, Seed: seed}
	return ds, nil
}

func generate(name string, size int, seed int64) (*Dataset, error) {
	switch name {
	case "night-street":
		return GenerateVideo(NightStreetConfig(size, seed))
	case "taipei":
		return GenerateVideo(TaipeiConfig(size, seed))
	case "amsterdam":
		return GenerateVideo(AmsterdamConfig(size, seed))
	case "wikisql":
		return GenerateText(WikiSQLConfig(size, seed))
	case "common-voice":
		return GenerateSpeech(CommonVoiceConfig(size, seed))
	default:
		return nil, fmt.Errorf("dataset: unknown dataset %q", name)
	}
}

// Names lists the datasets Generate accepts, in evaluation order.
func Names() []string {
	return []string{"night-street", "taipei", "amsterdam", "wikisql", "common-voice"}
}
